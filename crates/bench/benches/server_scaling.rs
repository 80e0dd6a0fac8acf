//! Server scaling with the server I/O pipeline on (paper §2.3 extended):
//! the same SNFS clients against two server configurations — the
//! paper-faithful FIFO/uncached server (`ServerIoParams::paper`) and the
//! pipelined one (`ServerIoParams::pipelined`: C-LOOK arm scheduling,
//! larger block cache with single-flight misses, wider RPC admission).
//! The pipeline only reorders and absorbs server disk work; writes stay
//! synchronous, so consistency results are untouched.

use criterion::{criterion_group, criterion_main, Criterion};
use spritely_bench::{artifact, artifact_file, bench_ledger, config};
use spritely_harness::{
    artifacts::slug_of, report, run_scaling_with, Protocol, ScalingRun, ServerIoParams,
    TestbedParams,
};
use spritely_metrics::TextTable;

fn params(io: ServerIoParams, trace: bool) -> TestbedParams {
    TestbedParams {
        protocol: Protocol::Snfs,
        tmp_remote: true,
        server_io: io,
        trace,
        ..TestbedParams::default()
    }
}

fn bench(c: &mut Criterion) {
    let mut t = TextTable::new(vec![
        "clients",
        "paper s",
        "pipelined s",
        "speedup",
        "paper util",
        "pipe util",
    ]);
    let mut runs: Vec<(String, ScalingRun)> = Vec::new();
    let mut speedup_at_8 = 0.0;
    for &n in &[4usize, 8] {
        let paper = run_scaling_with(params(ServerIoParams::paper(), false), n, 42);
        let pipe = run_scaling_with(params(ServerIoParams::pipelined(), false), n, 42);
        let speedup = paper.makespan.as_secs_f64() / pipe.makespan.as_secs_f64();
        if n == 8 {
            speedup_at_8 = speedup;
        }
        t.row(vec![
            n.to_string(),
            format!("{:.0}", paper.makespan.as_secs_f64()),
            format!("{:.0}", pipe.makespan.as_secs_f64()),
            format!("{speedup:.2}x"),
            format!("{:.2}", paper.server_util),
            format!("{:.2}", pipe.server_util),
        ]);
        runs.push((format!("paper/{n}"), paper));
        runs.push((format!("pipelined/{n}"), pipe));
    }
    let labeled: Vec<(&str, &ScalingRun)> =
        runs.iter().map(|(label, r)| (label.as_str(), r)).collect();
    let body = format!(
        "{}\nserver I/O pipeline observability:\n{}",
        t.render(),
        report::server_io_table(&labeled)
    );
    artifact(
        "Server scaling: FIFO paper server vs pipelined server I/O (SNFS, seed 42)",
        &body,
    );
    // Snapshot of the 8-client pipelined run for offline diffing.
    let pipe8 = &runs.last().expect("runs recorded").1;
    artifact_file("stats_server_scaling.json", &pipe8.stats.to_json());
    let mut ledger: Vec<(String, String)> = runs
        .iter()
        .map(|(label, r)| {
            (
                format!("{}_makespan_s", slug_of(label)),
                format!("{:.1}", r.makespan.as_secs_f64()),
            )
        })
        .collect();
    ledger.push(("gain_at_8_x".into(), format!("{speedup_at_8:.2}")));
    bench_ledger("server_scaling", &ledger);
    // Acceptance gate: the pipeline must buy ≥ 1.3x makespan at 8 clients.
    assert!(
        speedup_at_8 >= 1.3,
        "pipelined server I/O must cut 8-client makespan by >= 1.3x, got {speedup_at_8:.2}x"
    );
    // A traced pipelined run feeds the new disk-queue/reorder checker
    // rule with a real C-LOOK schedule; any bypass past the aging limit
    // or an unqueued completion is a violation.
    let traced = run_scaling_with(params(ServerIoParams::pipelined(), true), 4, 42);
    let trace = traced.trace.as_ref().expect("tracing was on");
    assert!(
        trace.ok(),
        "trace checker found violations:\n{}",
        report::trace_summary(trace)
    );
    let mut g = c.benchmark_group("server_scaling");
    g.bench_function("eight_clients_pipelined", |b| {
        b.iter(|| run_scaling_with(params(ServerIoParams::pipelined(), false), 8, 42).makespan)
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench
}
criterion_main!(benches);
