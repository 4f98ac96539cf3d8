//! Per-layer metrics from a traced run's spans and storage counters.
//!
//! Set-up layers (`dbi`, `indoor`, `devices`, `positioning.setup`) are
//! reported as the mean time of one call, over set-up and measured phase
//! together. Every other time and count is the measured phase's total
//! divided by its rounds (one `run_many` batch on `generate`, the whole
//! open-loop phase on `serve_under_ingest`, one corpus replay on
//! `out_of_core`), so it does not grow with how many rounds fit in the run.

use std::collections::HashMap;

use vita_storage::{SegmentStats, TableCounts};

use crate::fixture::{KINDS, SERVE_SPANS};
use crate::report::Outcome;
use crate::trace::{totals_by_name, Span, Totals};

/// Storage maintenance counters over the measured phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct StorageTotals {
    pub seals: u64,
    pub compactions: u64,
    pub spills: u64,
    pub spilled_rows: u64,
    pub page_ins: u64,
    pub writer_stalls: u64,
    /// Highest `resident_rows` sampled during the phase.
    pub max_resident_rows: u64,
    /// Bytes of spill files on disk after maintenance, summed over rounds.
    pub spill_bytes: u64,
}

impl StorageTotals {
    /// Add the counters' growth from `before` to `after`.
    pub fn add_delta(&mut self, before: &SegmentStats, after: &SegmentStats) {
        self.seals += after.seals - before.seals;
        self.compactions += after.compactions - before.compactions;
        self.spills += after.spills - before.spills;
        self.page_ins += after.page_ins - before.page_ins;
        self.writer_stalls += after.writer_stalls - before.writer_stalls;
        self.spilled_rows += (after.spilled_rows as u64).saturating_sub(before.spilled_rows as u64);
    }
}

/// Everything besides spans that the per-layer metrics need.
#[derive(Debug, Default)]
pub struct LayerInputs {
    pub rounds: usize,
    /// Rows the traced pipeline produced in the measured phase
    /// (`fixes` holds every positioning row).
    pub pipeline: TableCounts,
    pub storage: StorageTotals,
    /// Rows returned per traced query.
    pub rows_per_query: f64,
    /// Open-loop issue lag of every request, ms (empty for closed loops).
    pub lag_ms: Vec<f64>,
    /// How far the paced writer fell behind its schedule, ms.
    pub ingest_lag_ms: f64,
    pub overhead_pct: f64,
    pub blocking_path_pct: f64,
}

pub fn emit(out: &mut Outcome, setup: &[Span], measured: &[Span], inputs: &LayerInputs) {
    let all: Vec<Span> = setup.iter().chain(measured).cloned().collect();
    let everywhere = totals_by_name(&all);
    let phase = totals_by_name(measured);
    let none = Totals::default();
    let get = |map: &HashMap<&'static str, Totals>, name: &str| -> Totals {
        map.get(name).cloned().unwrap_or_else(|| none.clone())
    };
    let ms = |ns: u64| ns as f64 / 1e6;
    let per_round = |v: f64| v / inputs.rounds.max(1) as f64;

    for (metric, span) in [
        ("dbi.parse_ms", "dbi.parse"),
        ("indoor.build_ms", "indoor.build"),
        ("devices.deploy_ms", "devices.deploy"),
        ("positioning.setup_ms", "positioning.setup"),
    ] {
        let t = get(&everywhere, span);
        out.metric_n(metric, ms(t.dur_ns) / t.count.max(1) as f64, t.count);
    }

    let mobility = get(&phase, "mobility.generate");
    let send = get(&phase, "core.bus_send");
    let rssi = get(&phase, "rssi.measure");
    let position = get(&phase, "positioning.position");
    out.metric("mobility.busy_ms", per_round(ms(mobility.self_ns)));
    out.metric("mobility.chunks", per_round(send.count as f64));
    let pipe = &inputs.pipeline;
    out.metric("mobility.samples", per_round(pipe.trajectories as f64));
    out.metric("rssi.busy_ms", per_round(ms(rssi.self_ns)));
    out.metric("rssi.rows", per_round(pipe.rssi as f64));
    out.metric("positioning.busy_ms", per_round(ms(position.self_ns)));
    out.metric("positioning.rows", per_round(pipe.fixes as f64));
    out.metric(
        "positioning.rows_per_sample",
        if pipe.trajectories > 0 {
            pipe.fixes as f64 / pipe.trajectories as f64
        } else {
            0.0
        },
    );
    out.metric("core.bus_send_blocked_ms", per_round(ms(send.dur_ns)));
    out.metric(
        "core.bus_recv_wait_ms",
        per_round(ms(get(&phase, "core.bus_recv").dur_ns)),
    );

    let append = get(&phase, "storage.append");
    out.metric("storage.append_ms", per_round(ms(append.dur_ns)));
    let append_us: Vec<f64> = append.durs_ns.iter().map(|&n| n as f64 / 1e3).collect();
    out.percentile_metric("storage.append_p99_us", &append_us, 0.99);
    out.metric("storage.appends", per_round(append.count as f64));
    let s = &inputs.storage;
    out.metric("storage.seals", per_round(s.seals as f64));
    out.metric("storage.compactions", per_round(s.compactions as f64));
    out.metric(
        "storage.seal_now_ms",
        per_round(ms(get(&phase, "storage.seal_now").dur_ns)),
    );
    out.metric("storage.spills", per_round(s.spills as f64));
    out.metric("storage.spilled_rows", per_round(s.spilled_rows as f64));
    out.metric("storage.page_ins", per_round(s.page_ins as f64));
    out.metric("storage.writer_stalls", per_round(s.writer_stalls as f64));
    out.metric("storage.max_resident_rows", s.max_resident_rows as f64);
    out.metric(
        "storage.spill_bytes_per_row",
        if s.spilled_rows > 0 {
            s.spill_bytes as f64 / s.spilled_rows as f64
        } else {
            0.0
        },
    );

    for (kind, span) in KINDS.iter().zip(SERVE_SPANS) {
        let t = get(&phase, span);
        let us: Vec<f64> = t.durs_ns.iter().map(|&n| n as f64 / 1e3).collect();
        if us.is_empty() {
            // No queries of this kind ran in this workload's measured phase.
            out.metric(&format!("serve.{kind}.p50_us"), 0.0);
            out.metric(&format!("serve.{kind}.p99_us"), 0.0);
        } else {
            out.percentile_metric(&format!("serve.{kind}.p50_us"), &us, 0.5);
            out.percentile_metric(&format!("serve.{kind}.p99_us"), &us, 0.99);
        }
    }
    out.metric("serve.rows_per_query", inputs.rows_per_query);

    if inputs.lag_ms.is_empty() {
        out.metric("loadgen.lag_p99_ms", 0.0);
    } else {
        out.percentile_metric("loadgen.lag_p99_ms", &inputs.lag_ms, 0.99);
    }
    out.metric("loadgen.ingest_lag_ms", inputs.ingest_lag_ms);
    out.metric("trace.overhead_pct", inputs.overhead_pct);
    out.metric("trace.blocking_path_pct", inputs.blocking_path_pct);
}
