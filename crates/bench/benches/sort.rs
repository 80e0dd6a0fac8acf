//! The sort-benchmark family: Tables 5-3 to 5-6, from two sweeps of
//! three input sizes with `/usr/tmp` on local disk, NFS and SNFS, the
//! update daemons on and off.

use criterion::{criterion_group, criterion_main, Criterion};
use spritely_bench::{config, emit};
use spritely_harness::{artifacts, run_sort_experiment, Protocol};

fn bench(c: &mut Criterion) {
    emit(&artifacts::sort());
    let mut g = c.benchmark_group("sort");
    for p in [Protocol::Local, Protocol::Nfs, Protocol::Snfs] {
        g.bench_function(format!("sort_1408k_{}", p.label()), |b| {
            b.iter(|| run_sort_experiment(p, 1408 * 1024, true).elapsed)
        });
    }
    g.bench_function("sort_snfs_1408k_no_update", |b| {
        b.iter(|| run_sort_experiment(Protocol::Snfs, 1408 * 1024, false).elapsed)
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench
}
criterion_main!(benches);
