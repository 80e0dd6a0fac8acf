//! Ablation: name caching (the paper's §7 suggestion — "any mechanism
//! that reduced the number of lookups would improve performance", plus
//! the hint that Sprite-style consistency could cover directory entries).
//!
//! Lookups are ~half of every RPC column in Table 5-2. SNFS's consistent
//! name cache (directory invalidate callbacks) removes most of them
//! without weakening the consistency guarantee; NFS's TTL cache removes
//! them too, but with a stale-name window.

use criterion::{criterion_group, criterion_main, Criterion};
use spritely_bench::{artifact_named, bench_ledger, config, slug_of};
use spritely_harness::{run_andrew_with, run_name_cache_ablation, Protocol, TestbedParams};

fn bench(c: &mut Criterion) {
    let (table, lookups) = run_name_cache_ablation();
    artifact_named(
        "ablation_name_cache",
        "Ablation: name caching (Andrew, /tmp remote)",
        &table,
    );
    let ledger: Vec<(String, String)> = lookups
        .iter()
        .map(|(label, n)| (format!("{}_lookups", slug_of(label)), n.to_string()))
        .collect();
    bench_ledger("ablation_name_cache", &ledger);
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
