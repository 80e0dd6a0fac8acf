//! Flush-latency microbench: simulated time to write a 64-block dirty
//! file back to the server, paper-mode serial flush vs the gathered +
//! pipelined write-behind pool (perf mode).

use criterion::{criterion_group, criterion_main, Criterion};
use spritely_bench::{artifact_file, config, emit};
use spritely_harness::{artifacts, run_flush, WriteBehindParams};

const BLOCKS: usize = 64;

fn bench(c: &mut Criterion) {
    let family = artifacts::flush_latency();
    emit(&family);
    // The traced pipelined flush, for Perfetto.
    let trace = family.runs.traced.trace.as_ref().expect("tracing was on");
    artifact_file("trace_flush_pipelined.jsonl", &trace.to_jsonl());
    artifact_file("trace_flush_pipelined.chrome.json", &trace.to_chrome_json());
    let mut g = c.benchmark_group("flush_latency");
    g.bench_function("flush_64blk_paper", |b| {
        b.iter(|| run_flush("paper", WriteBehindParams::default(), BLOCKS).flush_time)
    });
    g.bench_function("flush_64blk_pipelined", |b| {
        b.iter(|| run_flush("pipelined", WriteBehindParams::pipelined(), BLOCKS).flush_time)
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench
}
criterion_main!(benches);
