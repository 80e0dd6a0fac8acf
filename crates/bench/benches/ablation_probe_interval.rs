//! Ablation: the NFS attribute-probe interval (footnote 3: 3-150 s in
//! Ultrix). Shorter floors mean more getattr traffic and a smaller stale
//! window; longer floors trade consistency for RPCs.

use criterion::{criterion_group, criterion_main, Criterion};
use spritely_bench::{artifact_named, bench_ledger, config};
use spritely_harness::{run_andrew_with, run_probe_interval_ablation, Protocol, TestbedParams};
use spritely_sim::SimDuration;

fn bench(c: &mut Criterion) {
    let (table, getattrs) = run_probe_interval_ablation();
    artifact_named(
        "ablation_probe_interval",
        "Ablation: NFS attribute-probe interval (Andrew)",
        &table,
    );
    let ledger: Vec<(String, String)> = getattrs
        .iter()
        .map(|(secs, n)| (format!("probe_{secs}s_getattrs"), n.to_string()))
        .collect();
    bench_ledger("ablation_probe_interval", &ledger);
    let mut g = c.benchmark_group("ablation_probe_interval");
    g.bench_function("andrew_nfs_probe_1s", |b| {
        b.iter(|| {
            run_andrew_with(
                TestbedParams {
                    protocol: Protocol::Nfs,
                    tmp_remote: true,
                    nfs_attr_min: SimDuration::from_secs(1),
                    ..TestbedParams::default()
                },
                42,
            )
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
