//! Ablation: the write-delay policy. Traditional Unix flushes everything
//! every 30 s (age 0); Sprite waits for blocks to reach 30 s of age;
//! "infinite" never flushes. The temp-file write traffic of the sort
//! benchmark responds directly.

use criterion::{criterion_group, criterion_main, Criterion};
use spritely_bench::{artifact_named, bench_ledger, config, slug_of};
use spritely_harness::{run_sort_with, Protocol, TestbedParams};
use spritely_metrics::TextTable;
use spritely_proto::NfsProc;
use spritely_sim::SimDuration;

fn bench(c: &mut Criterion) {
    let variants: Vec<(&str, TestbedParams)> = vec![
        (
            "flush-all@30s (Unix)",
            TestbedParams {
                protocol: Protocol::Snfs,
                tmp_remote: true,
                snfs_write_delay: SimDuration::ZERO,
                ..TestbedParams::default()
            },
        ),
        (
            "age>=30s (Sprite)",
            TestbedParams {
                protocol: Protocol::Snfs,
                tmp_remote: true,
                snfs_write_delay: SimDuration::from_secs(30),
                ..TestbedParams::default()
            },
        ),
        (
            "infinite",
            TestbedParams {
                protocol: Protocol::Snfs,
                tmp_remote: true,
                update_enabled: false,
                ..TestbedParams::default()
            },
        ),
    ];
    let mut t = TextTable::new(vec!["policy", "elapsed s", "write RPCs"]);
    let mut ledger = Vec::new();
    for (name, params) in &variants {
        let r = run_sort_with(*params, 2816 * 1024);
        t.row(vec![
            name.to_string(),
            format!("{:.1}", r.elapsed.as_secs_f64()),
            r.ops.get(NfsProc::Write).to_string(),
        ]);
        ledger.push((
            format!("{}_write_rpcs", slug_of(name)),
            r.ops.get(NfsProc::Write).to_string(),
        ));
    }
    artifact_named(
        "ablation_write_delay",
        "Ablation: SNFS write-delay policy (sort 2816 KB)",
        &t.render(),
    );
    bench_ledger("ablation_write_delay", &ledger);
    let mut g = c.benchmark_group("ablation_write_delay");
    g.bench_function("sort_sprite_age_policy", |b| {
        b.iter(|| run_sort_with(variants[1].1, 1408 * 1024).elapsed)
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench
}
criterion_main!(benches);
