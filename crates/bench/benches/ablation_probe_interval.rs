//! Ablation: the NFS attribute-probe interval (footnote 3: 3-150 s in
//! Ultrix). Shorter floors mean more getattr traffic and a smaller stale
//! window; longer floors trade consistency for RPCs.

use criterion::{criterion_group, criterion_main, Criterion};
use spritely_bench::{config, emit};
use spritely_harness::{artifacts, run_andrew_with, Protocol, TestbedParams};
use spritely_sim::SimDuration;

fn bench(c: &mut Criterion) {
    emit(&artifacts::probe_interval());
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
