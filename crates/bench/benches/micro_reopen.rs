//! The §5.3 microbenchmark: write a large file, close it, then open and
//! read either the same file or a different one. On the vintage NFS
//! client both cost the same (the close purged the cache); on a fixed
//! client or SNFS the same-file reread is nearly free.

use criterion::{criterion_group, criterion_main, Criterion};
use spritely_bench::{config, emit};
use spritely_harness::{artifacts, run_reopen, Protocol};

fn bench(c: &mut Criterion) {
    emit(&artifacts::micro());
    let mut g = c.benchmark_group("micro_reopen");
    for p in [Protocol::Nfs, Protocol::NfsFixed, Protocol::Snfs] {
        g.bench_function(format!("reopen_same_{}", p.label()), |b| {
            b.iter(|| run_reopen(p, true, 256 * 1024).result.read_time)
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
