//! Ablation: the write-delay policy. Traditional Unix flushes everything
//! every 30 s (age 0); Sprite waits for blocks to reach 30 s of age;
//! "infinite" never flushes. The temp-file write traffic of the sort
//! benchmark responds directly.

use criterion::{criterion_group, criterion_main, Criterion};
use spritely_bench::{config, emit};
use spritely_harness::{artifacts, run_sort_with, Protocol, TestbedParams};
use spritely_sim::SimDuration;

fn bench(c: &mut Criterion) {
    emit(&artifacts::write_delay());
    let sprite_age = TestbedParams {
        protocol: Protocol::Snfs,
        tmp_remote: true,
        snfs_write_delay: SimDuration::from_secs(30),
        ..TestbedParams::default()
    };
    let mut g = c.benchmark_group("ablation_write_delay");
    g.bench_function("sort_sprite_age_policy", |b| {
        b.iter(|| run_sort_with(sprite_age, 1408 * 1024).elapsed)
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench
}
criterion_main!(benches);
