//! Ablation: the NFS client's invalidate-on-close bug. The paper
//! attributes less than a quarter of the sort-benchmark difference to it
//! (§5.3); the rest is the synchronous write-back-on-close the protocol
//! requires.

use criterion::{criterion_group, criterion_main, Criterion};
use spritely_bench::{config, emit};
use spritely_harness::{artifacts, run_sort_experiment, Protocol};

fn bench(c: &mut Criterion) {
    emit(&artifacts::close_bug());
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
