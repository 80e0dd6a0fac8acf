//! Ablation: the §6.2 delayed-close extension. Header files are reopened
//! constantly during the Make phase; deferring the close RPC turns most
//! of those opens into local operations.

use criterion::{criterion_group, criterion_main, Criterion};
use spritely_bench::{config, emit};
use spritely_harness::{artifacts, run_andrew, Protocol};

fn bench(c: &mut Criterion) {
    emit(&artifacts::delayed_close());
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
