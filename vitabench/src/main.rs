//! The Vita benchmark: runs one workload from a seed, checks its outputs,
//! and prints its metrics; the last line of standard output is the result
//! as one JSON object. See README.md.
//!
//! ```text
//! vitabench --workload <generate|serve_under_ingest|out_of_core>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```

mod fixture;
mod layers;
mod loadgen;
mod pipeline;
mod report;
mod stats;
mod system;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Duration;

use report::{END_TO_END, PER_LAYER};
use workloads::Params;

/// Where the traced run writes its spans, relative to the working
/// directory.
const TRACE_DIR: &str = ".bench_out";

fn usage(problem: &str) -> ExitCode {
    eprintln!(
        "{problem}\nusage: vitabench --workload <generate|serve_under_ingest|out_of_core> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, 10.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => match value.parse::<u64>() {
                Ok(v) => seed = Some(v),
                Err(_) => return usage("--seed takes a whole number"),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(v) if v > 0.0 => seconds = v,
                _ => return usage("--seconds takes a positive number"),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage("--trace takes 0 or 1"),
            },
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed)) = (workload, seed) else {
        return usage("--workload and --seed are required");
    };
    let params = Params {
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
    };
    let mut outcome = match workload.as_str() {
        "generate" => workloads::generate::run(params),
        "serve_under_ingest" => workloads::serve_under_ingest::run(params),
        "out_of_core" => workloads::out_of_core::run(params),
        other => return usage(&format!("unknown workload {other}")),
    };
    if trace {
        let path = std::path::Path::new(TRACE_DIR).join(format!("trace-{workload}-{seed}.tsv"));
        match trace::write_tsv(&outcome.trace_spans, &path) {
            Ok(()) => outcome.notes.push(format!(
                "{} spans written to {}",
                outcome.trace_spans.len(),
                path.display()
            )),
            Err(e) => {
                outcome.check(format!("write spans to {}: {e}", path.display()), false);
            }
        }
    }
    let declared = if trace { PER_LAYER } else { END_TO_END };
    println!(
        "workload {workload}, seed {seed}, {seconds} s, trace {}",
        u8::from(trace)
    );
    println!("{}", outcome.render(declared));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
