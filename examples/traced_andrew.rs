//! Runs the Andrew benchmark on SNFS with event tracing on, prints the
//! trace summary, and exits non-zero if the protocol invariant checker
//! finds any violation. `scripts/check.sh` runs this as a gate.
//!
//! Run with: `cargo run --release --example traced_andrew`

use std::process::ExitCode;

use spritely::harness::{report, run_andrew_traced};

fn main() -> ExitCode {
    println!("Running the Andrew benchmark on SNFS with tracing on...\n");
    let run = run_andrew_traced(42);
    let trace = run.trace.expect("tracing was enabled");
    println!("{}", report::trace_summary(&trace));
    println!("stats snapshot:\n{}", run.stats.to_json());
    if trace.ok() {
        ExitCode::SUCCESS
    } else {
        eprintln!("trace checker found violations");
        ExitCode::FAILURE
    }
}
