//! Ablation: the SNFS server state-table limit (§4.3.1). A tight limit
//! forces reclaim passes — callbacks that pull dirty data back early and
//! drop closed entries — while a liberal limit (1000 entries = 70 KB, as
//! the paper sized it) never reclaims on this workload.

use criterion::{criterion_group, criterion_main, Criterion};
use spritely_bench::{config, emit_artifact};
use spritely_harness::artifacts::Artifact;
use spritely_harness::{Protocol, RemoteClient, SnfsServerParams, Testbed, TestbedParams};
use spritely_metrics::TextTable;
use spritely_sim::SimDuration;

/// Creates and closes 256 one-block files, then reports
/// `(table entries, reclaim passes, callbacks sent, write RPCs)`.
fn churn(table_limit: usize) -> (usize, u64, u64, u64) {
    let tb = Testbed::build(TestbedParams {
        protocol: Protocol::Snfs,
        snfs_server: SnfsServerParams {
            table_limit,
            reclaim_target: table_limit * 3 / 4,
            ..SnfsServerParams::default()
        },
        ..TestbedParams::default()
    });
    let server = tb.snfs_server.clone().expect("snfs server");
    let counter = tb.counter.clone();
    let c = match &tb.clients[0].remote {
        RemoteClient::Snfs(c) => c.clone(),
        _ => unreachable!(),
    };
    let root = tb.server_fs.root();
    let sim = tb.sim.clone();
    let h = sim.spawn({
        let sim = sim.clone();
        async move {
            for i in 0..256 {
                let (fh, _) = c.create(root, &format!("f{i}")).await.unwrap();
                c.open(fh, true).await.unwrap();
                c.write(fh, 0, &[1u8; 4096]).await.unwrap();
                c.close(fh, true).await.unwrap();
            }
            sim.sleep(SimDuration::from_secs(5)).await;
        }
    });
    sim.run_until(h);
    let stats = server.stats();
    (
        server.table_len(),
        stats.reclaim_passes,
        stats.callbacks_sent,
        counter.get(spritely_proto::NfsProc::Write),
    )
}

fn bench(c: &mut Criterion) {
    let mut t = TextTable::new(vec![
        "limit",
        "entries",
        "reclaims",
        "callbacks",
        "early write RPCs",
    ]);
    let mut ledger = Vec::new();
    for limit in [16usize, 64, 1000] {
        let (len, passes, callbacks, writes) = churn(limit);
        t.row(vec![
            limit.to_string(),
            len.to_string(),
            passes.to_string(),
            callbacks.to_string(),
            writes.to_string(),
        ]);
        ledger.push((format!("limit_{limit}_reclaims"), passes.to_string()));
        ledger.push((format!("limit_{limit}_callbacks"), callbacks.to_string()));
    }
    emit_artifact(&Artifact {
        name: "ablation_state_limit",
        title: "Ablation: state-table limit under 256-file churn".into(),
        body: t.render(),
        ledger: Some(("ablation_state_limit", ledger)),
    });
    let mut g = c.benchmark_group("ablation_state_limit");
    for limit in [16usize, 1000] {
        g.bench_function(format!("churn_limit_{limit}"), |b| {
            b.iter(|| churn(limit).0)
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
