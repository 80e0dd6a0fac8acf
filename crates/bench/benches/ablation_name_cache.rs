//! Ablation: name caching (the paper's §7 suggestion — "any mechanism
//! that reduced the number of lookups would improve performance", plus
//! the hint that Sprite-style consistency could cover directory entries).
//!
//! Lookups are ~half of every RPC column in Table 5-2. SNFS's consistent
//! name cache (directory invalidate callbacks) removes most of them
//! without weakening the consistency guarantee; NFS's TTL cache removes
//! them too, but with a stale-name window.

use criterion::{criterion_group, criterion_main, Criterion};
use spritely_bench::{config, emit};
use spritely_harness::{artifacts, run_andrew_with, Protocol, TestbedParams};

fn bench(c: &mut Criterion) {
    emit(&artifacts::name_cache());
    let mut g = c.benchmark_group("ablation_name_cache");
    g.bench_function("andrew_snfs_name_cache", |b| {
        b.iter(|| {
            run_andrew_with(
                TestbedParams {
                    protocol: Protocol::Snfs,
                    tmp_remote: true,
                    name_cache: true,
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
