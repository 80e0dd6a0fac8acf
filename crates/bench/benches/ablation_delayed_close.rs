//! Ablation: the §6.2 delayed-close extension. Header files are reopened
//! constantly during the Make phase; deferring the close RPC turns most
//! of those opens into local operations.

use criterion::{criterion_group, criterion_main, Criterion};
use spritely_bench::{artifact_named, bench_ledger, config, slug_of};
use spritely_harness::{run_andrew, Protocol};
use spritely_metrics::TextTable;
use spritely_proto::NfsProc;

fn bench(c: &mut Criterion) {
    let mut t = TextTable::new(vec!["variant", "total s", "open", "close", "total ops"]);
    let mut ledger = Vec::new();
    for p in [Protocol::Snfs, Protocol::SnfsDelayedClose] {
        let r = run_andrew(p, false, 42);
        t.row(vec![
            p.label().to_string(),
            format!("{:.0}", r.times.total().as_secs_f64()),
            r.ops_with_tail.get(NfsProc::Open).to_string(),
            r.ops_with_tail.get(NfsProc::Close).to_string(),
            r.ops_with_tail.total().to_string(),
        ]);
        ledger.push((
            format!("{}_total_s", slug_of(p.label())),
            format!("{:.1}", r.times.total().as_secs_f64()),
        ));
        ledger.push((
            format!("{}_rpcs", slug_of(p.label())),
            r.ops_with_tail.total().to_string(),
        ));
    }
    artifact_named(
        "ablation_delayed_close",
        "Ablation: delayed close (Andrew, /tmp local)",
        &t.render(),
    );
    bench_ledger("ablation_delayed_close", &ledger);
    let mut g = c.benchmark_group("ablation_delayed_close");
    g.bench_function("andrew_snfs_delayed_close", |b| {
        b.iter(|| {
            run_andrew(Protocol::SnfsDelayedClose, false, 42)
                .times
                .total()
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench
}
criterion_main!(benches);
