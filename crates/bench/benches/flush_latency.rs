//! Flush-latency microbench: simulated time to write a 64-block dirty
//! file back to the server, paper-mode serial flush vs the gathered +
//! pipelined write-behind pool (perf mode).

use criterion::{criterion_group, criterion_main, Criterion};
use spritely_bench::{artifact, artifact_file, bench_ledger, config};
use spritely_harness::{report, run_flush, run_flush_latency, WriteBehindParams};

const BLOCKS: usize = 64;

fn bench(c: &mut Criterion) {
    let exp = run_flush_latency(BLOCKS);
    let runs = &exp.runs;
    let serial = runs[0].flush_time;
    let piped = runs[1].flush_time;
    let speedup = exp.speedup();
    artifact(
        "Flush latency: 64-block write-back, serial vs gathered+pipelined",
        &exp.report(),
    );
    // Traced pipelined flush: checker-validated, artifacts for Perfetto.
    let trace = exp.traced.trace.as_ref().expect("tracing was on");
    artifact_file("trace_flush_pipelined.jsonl", &trace.to_jsonl());
    artifact_file("trace_flush_pipelined.chrome.json", &trace.to_chrome_json());
    artifact_file("stats_flush_pipelined.json", &exp.traced.stats.to_json());
    assert!(
        trace.ok(),
        "trace checker found violations:\n{}",
        report::trace_summary(trace)
    );
    assert!(
        speedup >= 2.0,
        "write gathering + pipelining must at least halve flush latency, got {speedup:.2}x"
    );
    // Sim-time metrics only, under names the compare ignore-list does
    // not match ("serial_ms"/"speedup" are reserved for wall clock).
    bench_ledger(
        "flush_latency",
        &[
            (
                "flush_paper_ms".into(),
                format!("{:.2}", serial.as_secs_f64() * 1e3),
            ),
            (
                "flush_pipelined_ms".into(),
                format!("{:.2}", piped.as_secs_f64() * 1e3),
            ),
            ("flush_gain_x".into(), format!("{speedup:.2}")),
            ("paper_write_rpcs".into(), runs[0].write_rpcs.to_string()),
            (
                "pipelined_write_rpcs".into(),
                runs[1].write_rpcs.to_string(),
            ),
            (
                "pipelined_mean_batch".into(),
                format!("{:.2}", runs[1].mean_batch),
            ),
            (
                "pipelined_peak_inflight".into(),
                runs[1].peak_inflight.to_string(),
            ),
        ],
    );
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
