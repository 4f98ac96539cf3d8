#![forbid(unsafe_code)]
//! # vita-serve
//!
//! Online query serving over live ingestion: the front-end the VITA paper's
//! demo (§5) implies but never names — consumers of generated mobility data
//! asking questions of the repository *while* the producer layers are still
//! filling it.
//!
//! Two halves:
//!
//! * [`query`] — the typed query surface: a [`QueryRequest`] names one of
//!   the repository's query paths plus a [`vita_storage::RunScope`]
//!   picking all runs or one; a [`QueryService`] executes requests against
//!   a shared [`vita_storage::AnyRepository`] handle and answers with a
//!   [`QueryResponse`]. The service is a cheap clone (one `Arc`), so a
//!   pool of query worker threads can answer concurrently with ingestion
//!   on the same repository.
//! * [`load`] — a closed-feedback ramped load generator: drive a weighted
//!   [`WorkloadSpec`] query mix at a stepped-up request rate
//!   ([`LoadProfile`]: `initial_rps` → `+increment_rps` → `max_rps`),
//!   record achieved throughput and p50/p99/p999 latency per step, and
//!   stop at the first step the service cannot sustain — reporting the
//!   max sustainable RPS ([`RampReport`]).
//!
//! Every query answers from a **prefix-consistent snapshot**: each table
//! read takes that table's read lock (or, on the segmented backend, pins
//! the table's current immutable snapshot), so a response never contains
//! a torn batch — it reflects every batch
//! appended before some point and none after.

pub mod load;
pub mod query;

pub use load::{run_fixed, run_ramp, LoadProfile, RampReport, StepReport, WorkloadSpec};
pub use query::{QueryRequest, QueryResponse, QueryService};
