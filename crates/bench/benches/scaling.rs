//! Server scaling (paper §2.3): makespan and server utilization as
//! identical diskless-workstation clients are added — plus the sharded
//! namespace curve (DESIGN.md §18): aggregate throughput of the
//! shared-nothing workload at 128–512 clients over 1–8 server shards.

use criterion::{criterion_group, criterion_main, Criterion};
use spritely_bench::{artifact, config, emit};
use spritely_harness::{artifacts, run_scaling, run_scaling_shards, Protocol};
use spritely_metrics::TextTable;

fn bench(c: &mut Criterion) {
    // The §2.3 rows come from the catalogue; the sharded rows extend
    // the same `BENCH_scaling.json` ledger.
    let mut paper = artifacts::scaling(42);
    let Some((_, ledger)) = &mut paper.artifacts[0].ledger else {
        unreachable!("the scaling artifact has a ledger");
    };

    // Sharded namespace: the same seed, 1–8 shards, 128–512 clients on
    // the shared-nothing workload. Per-shard served-RPC counts ride
    // along so the ledger records the load split, not just the total.
    let mut st = TextTable::new(vec![
        "shards",
        "clients",
        "makespan s",
        "RPCs",
        "ops/s",
        "per-shard RPCs",
        "peak client KiB",
    ]);
    for &(shards, clients) in &[
        (1usize, 128usize),
        (2, 128),
        (4, 128),
        (8, 128),
        (2, 256),
        (4, 256),
        (4, 512),
        (8, 512),
    ] {
        let r = run_scaling_shards(shards, clients, 42);
        st.row(vec![
            shards.to_string(),
            clients.to_string(),
            format!("{:.1}", r.makespan.as_secs_f64()),
            r.total_rpcs.to_string(),
            format!("{:.0}", r.throughput),
            r.per_shard_rpcs
                .iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join("/"),
            r.peak_client_kb.to_string(),
        ]);
        ledger.push((
            format!("shards_{shards}x{clients}_ops_per_s"),
            format!("{:.0}", r.throughput),
        ));
        ledger.push((
            format!("shards_{shards}x{clients}_makespan_s"),
            format!("{:.1}", r.makespan.as_secs_f64()),
        ));
        for (s, n) in r.per_shard_rpcs.iter().enumerate() {
            ledger.push((
                format!("shards_{shards}x{clients}_rpcs_s{s}"),
                n.to_string(),
            ));
        }
    }
    emit(&paper);
    artifact("Sharded namespace scaling (DESIGN.md §18)", &st.render());
    let mut g = c.benchmark_group("scaling");
    for p in [Protocol::Nfs, Protocol::Snfs] {
        g.bench_function(format!("four_clients_{}", p.label()), |b| {
            b.iter(|| run_scaling(p, 4, 42).makespan)
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
