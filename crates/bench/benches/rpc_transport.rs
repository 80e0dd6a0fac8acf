//! Transport pipeline (compound batching, piggybacked post-op
//! attributes, switched full-duplex wire) vs the paper transport, on
//! single-client Andrew over NFS and an 8-client shared-file read over
//! SNFS (see `spritely_harness::run_transport_comparison`).

use criterion::{criterion_group, criterion_main, Criterion};
use spritely_bench::{artifact, artifact_file, bench_ledger, config};
use spritely_harness::{report, run_data_scaling, run_transport_comparison, TransportParams};

fn bench(c: &mut Criterion) {
    let cmp = run_transport_comparison(42);
    artifact(
        "RPC transport: paper vs pipelined transport (Andrew + 8-client scaling, seed 42)",
        &cmp.report(),
    );
    artifact_file(
        "stats_rpc_transport.json",
        &cmp.scale8_pipe.tb.stats_snapshot().to_json(),
    );
    let total_reduction = cmp.total_reduction();
    let andrew_speedup = cmp.andrew_speedup();
    let scaling_speedup = cmp.scaling_speedup();
    bench_ledger(
        "rpc_transport",
        &[
            (
                "andrew_paper_msgs".into(),
                cmp.andrew_paper.stats.transport.net_messages.to_string(),
            ),
            (
                "andrew_pipe_msgs".into(),
                cmp.andrew_pipe.stats.transport.net_messages.to_string(),
            ),
            (
                "scale8_paper_msgs".into(),
                cmp.scale8_paper.messages.to_string(),
            ),
            (
                "scale8_pipe_msgs".into(),
                cmp.scale8_pipe.messages.to_string(),
            ),
            (
                "total_reduction_pct".into(),
                format!("{total_reduction:.1}"),
            ),
            ("andrew_gain_x".into(), format!("{andrew_speedup:.2}")),
            ("scale8_gain_x".into(), format!("{scaling_speedup:.2}")),
        ],
    );

    // Acceptance gates (PR 4): >= 25% fewer RPC messages overall and
    // >= 1.2x makespan at 8 clients.
    assert!(
        total_reduction >= 25.0,
        "pipelined transport must cut total RPC messages by >= 25%, got {total_reduction:.1}%"
    );
    assert!(
        scaling_speedup >= 1.2,
        "pipelined transport must cut 8-client makespan by >= 1.2x, got {scaling_speedup:.2}x"
    );
    assert!(
        andrew_speedup >= 0.98,
        "the Nagle batcher must not slow the serial Andrew run, got {andrew_speedup:.2}x"
    );

    // A traced pipelined run feeds the batch-conservation and
    // at-most-once checker rules with a real batched schedule.
    let traced = run_data_scaling(TransportParams::pipelined(), 2, true);
    let trace = traced.tb.finish_trace().expect("tracing was on");
    assert!(
        trace.ok(),
        "trace checker found violations:\n{}",
        report::trace_summary(&trace)
    );

    let mut g = c.benchmark_group("rpc_transport");
    g.bench_function("eight_clients_pipelined", |b| {
        b.iter(|| run_data_scaling(TransportParams::pipelined(), 8, false).makespan_s)
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench
}
criterion_main!(benches);
