//! Table 5-2: RPC operation counts for the Andrew benchmark.

use criterion::{criterion_group, criterion_main, Criterion};
use spritely_bench::{artifact, artifact_file, bench_ledger, config, slug_of};
use spritely_harness::{report, run_andrew, run_andrew_traced, Protocol};
use spritely_trace::profile_trace;

fn bench(c: &mut Criterion) {
    let runs = vec![
        run_andrew(Protocol::Nfs, false, 42),
        run_andrew(Protocol::Nfs, true, 42),
        run_andrew(Protocol::Snfs, false, 42),
        run_andrew(Protocol::Snfs, true, 42),
    ];
    artifact(
        "Table 5-2: RPC calls for the Andrew benchmark (steady state)",
        &report::table_5_2(&runs),
    );
    // One traced SNFS run: the checker validates every state-table
    // transition and callback, and the trace + stats snapshot land in
    // artifacts/ for Perfetto / offline diffing.
    let traced = run_andrew_traced(42);
    let trace = traced.trace.as_ref().expect("tracing was on");
    artifact_file("trace_andrew_snfs.jsonl", &trace.to_jsonl());
    artifact_file("trace_andrew_snfs.chrome.json", &trace.to_chrome_json());
    artifact_file("stats_andrew_snfs.json", &traced.stats.to_json());
    artifact(
        "Trace summary: Andrew on SNFS (/tmp remote, seed 42)",
        &report::trace_summary(trace),
    );
    assert!(
        trace.ok(),
        "trace checker found violations:\n{}",
        report::trace_summary(trace)
    );
    // Phase attribution of the same trace: where each op's microseconds
    // went (see DESIGN.md §16).
    let profile = profile_trace(&trace.events);
    artifact_file("profile_andrew_snfs.json", &profile.to_json());
    artifact(
        "Latency profile: Andrew on SNFS (/tmp remote, seed 42)",
        &report::profile_table(&profile),
    );
    let mut ledger: Vec<(String, String)> = runs
        .iter()
        .map(|r| {
            (
                format!("{}_rpcs", slug_of(&r.label())),
                r.ops_with_tail.total().to_string(),
            )
        })
        .collect();
    ledger.push(("profile_spans".into(), profile.ops.len().to_string()));
    ledger.push(("profile_rpcs".into(), profile.total_rpcs.to_string()));
    ledger.push((
        "profile_attributed_pct".into(),
        format!("{:.3}", profile.attributed_fraction() * 100.0),
    ));
    bench_ledger("table_5_2", &ledger);
    let mut g = c.benchmark_group("table_5_2");
    g.bench_function("andrew_nfs_tmp_remote", |b| {
        b.iter(|| run_andrew(Protocol::Nfs, true, 42).ops_with_tail.total())
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench
}
criterion_main!(benches);
