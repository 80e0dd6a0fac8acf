//! Ablation: the NFS client's invalidate-on-close bug. The paper
//! attributes less than a quarter of the sort-benchmark difference to it
//! (§5.3); the rest is the synchronous write-back-on-close the protocol
//! requires.

use criterion::{criterion_group, criterion_main, Criterion};
use spritely_bench::{artifact_named, bench_ledger, config, slug_of};
use spritely_harness::{run_sort_experiment, Protocol};
use spritely_metrics::TextTable;
use spritely_proto::NfsProc;

fn bench(c: &mut Criterion) {
    let mut t = TextTable::new(vec!["client", "elapsed s", "reads", "writes"]);
    let mut ledger = Vec::new();
    for p in [Protocol::Nfs, Protocol::NfsFixed, Protocol::Snfs] {
        let r = run_sort_experiment(p, 1408 * 1024, true);
        t.row(vec![
            p.label().to_string(),
            format!("{:.1}", r.elapsed.as_secs_f64()),
            r.ops.get(NfsProc::Read).to_string(),
            r.ops.get(NfsProc::Write).to_string(),
        ]);
        ledger.push((
            format!("{}_sort_s", slug_of(p.label())),
            format!("{:.1}", r.elapsed.as_secs_f64()),
        ));
        ledger.push((
            format!("{}_reads", slug_of(p.label())),
            r.ops.get(NfsProc::Read).to_string(),
        ));
    }
    artifact_named(
        "ablation_close_bug",
        "Ablation: invalidate-on-close bug (sort 1408 KB)",
        &t.render(),
    );
    bench_ledger("ablation_close_bug", &ledger);
    let mut g = c.benchmark_group("ablation_close_bug");
    for p in [Protocol::Nfs, Protocol::NfsFixed] {
        g.bench_function(format!("sort_{}", p.label()), |b| {
            b.iter(|| run_sort_experiment(p, 1408 * 1024, true).elapsed)
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench
}
criterion_main!(benches);
