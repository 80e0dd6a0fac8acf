//! Paper-mode regression gate: with the default `ServerIoParams::paper()`
//! server (FIFO disk arm, 896-block cache, no single-flight coalescing,
//! 4 service threads) and the default `TransportParams::paper()` wire
//! (one message per RPC, no piggybacked attributes, shared bus, fixed
//! retransmit timeout), every `table_5_*` artifact must stay
//! byte-identical to the committed `baselines/` snapshot. This is what
//! lets the server I/O pipeline (`ServerIoParams::pipelined`) and the
//! transport pipeline (`TransportParams::pipelined`) land as pure
//! opt-ins: the measured 1989 system is reproduced bit-for-bit unless
//! the pipelines are asked for.
//!
//! Each test re-runs the exact run set of the corresponding bench target
//! (same protocols, sizes, and seed) and compares the rendered artifact —
//! `"{title}\n{body}\n"`, as `spritely_bench::artifact` writes it, or a
//! raw `stats_*.json` snapshot — against the baseline file. The figure,
//! flush-latency, transport and traced-Andrew gates also pin the
//! multi-client and single-server testbed topologies byte for byte, and
//! the traced-Andrew gate pins the latency profile snapshot too. The
//! name-cache and probe-interval ablations pin the NFS TTL name cache,
//! the SNFS directory callbacks and the NFS attribute-cache bounds.

use std::fs;

use spritely::harness::{
    report, run_andrew, run_andrew_traced, run_flush_latency, run_name_cache_ablation,
    run_probe_interval_ablation, run_sort_experiment, run_transport_comparison, Protocol, SortRun,
    Testbed, TestbedParams,
};
use spritely::trace::{profile_trace, EventKind};
use spritely::vfs::OpenFlags;

fn baseline(name: &str) -> String {
    let path = format!("{}/baselines/{name}", env!("CARGO_MANIFEST_DIR"));
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn rendered(title: &str, body: &str) -> String {
    format!("{title}\n{body}\n")
}

#[test]
fn paper_mode_andrew_tables_match_baselines() {
    // The run set of benches/table_5_1.rs; table_5_2.rs uses the same
    // four remote runs (determinism makes re-renders byte-equal).
    let mut runs = vec![
        run_andrew(Protocol::Local, false, 42),
        run_andrew(Protocol::Nfs, false, 42),
        run_andrew(Protocol::Nfs, true, 42),
        run_andrew(Protocol::Snfs, false, 42),
        run_andrew(Protocol::Snfs, true, 42),
    ];
    // The default transport is the paper's: the batcher, the piggyback
    // consumer, and the compound machinery must all be inert.
    for r in &runs {
        let t = &r.stats.transport;
        assert_eq!(t.batches, 0, "paper transport must never batch");
        assert_eq!(t.saved_round_trips, 0);
        assert_eq!(t.attr_elisions, 0, "paper clients must probe, not elide");
        assert!(
            r.stats.delegation.is_none(),
            "paper runs must not report a delegation section"
        );
    }
    assert_eq!(
        rendered(
            "Table 5-1: Andrew benchmark elapsed time (seconds)",
            &report::table_5_1(&runs)
        ),
        baseline("table_5_1.txt"),
        "table 5-1 drifted from its baseline in paper mode"
    );
    runs.remove(0); // table 5-2 has no local column
    assert_eq!(
        rendered(
            "Table 5-2: RPC calls for the Andrew benchmark (steady state)",
            &report::table_5_2(&runs)
        ),
        baseline("table_5_2.txt"),
        "table 5-2 drifted from its baseline in paper mode"
    );
}

/// Delegations compiled in but disabled (the default
/// `DelegationParams::paper()`) must be invisible: an open/close-heavy
/// two-client run — the exact shape that would trigger grants and a
/// recall with the subsystem on — emits zero `Deleg*` trace events,
/// reports no delegation section in the snapshot, and leaves every
/// counter at zero. Together with the byte-identical tables above this
/// pins the subsystem as a pure opt-in.
#[test]
fn paper_mode_keeps_delegations_inert() {
    let tb = Testbed::build_with_clients(
        TestbedParams {
            protocol: Protocol::Snfs,
            trace: true,
            ..TestbedParams::default()
        },
        2,
    );
    {
        let p = tb.proc();
        let h = tb.sim.spawn(async move {
            let fd = p
                .open("/remote/doc", OpenFlags::create_write())
                .await
                .unwrap();
            p.write(fd, &[7u8; 4 * 4096]).await.unwrap();
            p.close(fd).await.unwrap();
            for _ in 0..3 {
                let fd = p.open("/remote/doc", OpenFlags::read()).await.unwrap();
                p.close(fd).await.unwrap();
            }
        });
        tb.sim.run_until(h);
    }
    {
        let p = tb.clients[1].proc(&tb.sim);
        let h = tb.sim.spawn(async move {
            let fd = p.open("/remote/doc", OpenFlags::read()).await.unwrap();
            while !p.read(fd, 4096).await.unwrap().is_empty() {}
            p.close(fd).await.unwrap();
        });
        tb.sim.run_until(h);
    }
    let snap = tb.stats_snapshot();
    assert!(
        snap.delegation.is_none(),
        "disabled delegations must not appear in the snapshot"
    );
    let server = tb.snfs_server.clone().expect("snfs server");
    assert_eq!(server.delegation_count(), 0);
    assert_eq!(
        server.delegation_stats(),
        Default::default(),
        "no server-side delegation counter may move"
    );
    let trace = tb.finish_trace().expect("tracing on");
    assert!(trace.ok());
    let deleg_events = trace
        .events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::DelegGrant { .. }
                    | EventKind::DelegRecall { .. }
                    | EventKind::DelegReturn { .. }
                    | EventKind::DelegLocalOpen { .. }
            )
        })
        .count();
    assert_eq!(deleg_events, 0, "paper mode must emit zero Deleg* events");
}

#[test]
fn paper_mode_sort_tables_match_baselines() {
    let sweep = |update: bool| -> Vec<SortRun> {
        let mut runs = Vec::new();
        for &kb in &[281u64, 1408, 2816] {
            for p in [Protocol::Local, Protocol::Nfs, Protocol::Snfs] {
                runs.push(run_sort_experiment(p, kb * 1024, update));
            }
        }
        runs
    };
    let mut upd = sweep(true);
    let mut noupd = sweep(false);
    assert_eq!(
        rendered(
            "Table 5-3: results of sort benchmark",
            &report::sort_table(&upd)
        ),
        baseline("table_5_3.txt"),
        "table 5-3 drifted from its baseline in paper mode"
    );
    assert_eq!(
        rendered(
            "Table 5-5: sort benchmark, infinite write-delay",
            &report::sort_table(&noupd)
        ),
        baseline("table_5_5.txt"),
        "table 5-5 drifted from its baseline in paper mode"
    );
    // Tables 5-4/5-6 are row subsets of the sweeps (NFS/SNFS at 2816 KB);
    // the sweep order is [.., Local, Nfs, Snfs] per size, largest last.
    let snfs_u = upd.remove(8);
    let nfs_u = upd.remove(7);
    let v54 = [nfs_u, snfs_u];
    assert_eq!(
        rendered(
            "Table 5-4: RPC calls for sort benchmark",
            &report::sort_rpc_table(&v54)
        ),
        baseline("table_5_4.txt"),
        "table 5-4 drifted from its baseline in paper mode"
    );
    let snfs_n = noupd.remove(8);
    let nfs_n = noupd.remove(7);
    let [nfs_u, snfs_u] = v54;
    let v56 = vec![nfs_u, nfs_n, snfs_u, snfs_n];
    assert_eq!(
        rendered(
            "Table 5-6: RPC calls for sort, update on/off (2816 KB)",
            &report::sort_rpc_table(&v56)
        ),
        baseline("table_5_6.txt"),
        "table 5-6 drifted from its baseline in paper mode"
    );
}

#[test]
fn paper_mode_figures_match_baselines() {
    // The run sets of benches/figure_5_1.rs and figure_5_2.rs.
    for (protocol, title, file) in [
        (
            Protocol::Nfs,
            "Figure 5-1: server utilization and call rates for NFS (CSV)",
            "figure_5_1.txt",
        ),
        (
            Protocol::Snfs,
            "Figure 5-2: server utilization and call rates for SNFS (CSV)",
            "figure_5_2.txt",
        ),
    ] {
        let run = run_andrew(protocol, true, 42);
        assert_eq!(
            rendered(title, &report::figure_series(&run)),
            baseline(file),
            "{file} drifted from its baseline"
        );
    }
}

#[test]
fn traced_andrew_stats_and_trace_summary_match_baselines() {
    // The traced run of benches/table_5_2.rs. Its snapshot pins the
    // single-server JSON exactly, down to the absent `shards` section.
    let run = run_andrew_traced(42);
    assert_eq!(
        run.stats.to_json(),
        baseline("stats_andrew_snfs.json"),
        "stats_andrew_snfs.json drifted from its baseline"
    );
    let trace = run.trace.as_ref().expect("tracing on");
    assert!(trace.ok(), "checker violations: {:?}", trace.violations);
    assert_eq!(
        rendered(
            "Trace summary: Andrew on SNFS (/tmp remote, seed 42)",
            &report::trace_summary(trace)
        ),
        baseline("trace_summary.txt"),
        "trace_summary.txt drifted from its baseline"
    );
    // The snapshot `spritely profile andrew` writes, exactly.
    assert_eq!(
        profile_trace(&trace.events).to_json(),
        baseline("profile_andrew_snfs.json"),
        "profile_andrew_snfs.json drifted from its baseline"
    );
}

#[test]
fn flush_latency_matches_baselines() {
    // The run set of benches/flush_latency.rs.
    let exp = run_flush_latency(64);
    assert_eq!(
        rendered(
            "Flush latency: 64-block write-back, serial vs gathered+pipelined",
            &exp.report()
        ),
        baseline("flush_latency.txt"),
        "flush_latency.txt drifted from its baseline"
    );
    assert_eq!(
        exp.traced.stats.to_json(),
        baseline("stats_flush_pipelined.json"),
        "stats_flush_pipelined.json drifted from its baseline"
    );
}

#[test]
fn rpc_transport_matches_baselines() {
    // The run set of benches/rpc_transport.rs: Andrew on one client and
    // an 8-client shared read, each on both transports.
    let cmp = run_transport_comparison(42);
    assert_eq!(
        rendered(
            "RPC transport: paper vs pipelined transport (Andrew + 8-client scaling, seed 42)",
            &cmp.report()
        ),
        baseline("rpc_transport.txt"),
        "rpc_transport.txt drifted from its baseline"
    );
    assert_eq!(
        cmp.scale8_pipe.tb.stats_snapshot().to_json(),
        baseline("stats_rpc_transport.json"),
        "stats_rpc_transport.json drifted from its baseline"
    );
}

#[test]
fn name_cache_ablation_matches_baseline() {
    // The run set of benches/ablation_name_cache.rs: the NFS TTL name
    // cache and the SNFS directory-callback name cache.
    assert_eq!(
        rendered(
            "Ablation: name caching (Andrew, /tmp remote)",
            &run_name_cache_ablation().0
        ),
        baseline("ablation_name_cache.txt"),
        "ablation_name_cache.txt drifted from its baseline"
    );
}

#[test]
fn probe_interval_ablation_matches_baseline() {
    // The run set of benches/ablation_probe_interval.rs: the NFS
    // attribute cache between each probe floor and its 150 s ceiling.
    assert_eq!(
        rendered(
            "Ablation: NFS attribute-probe interval (Andrew)",
            &run_probe_interval_ablation().0
        ),
        baseline("ablation_probe_interval.txt"),
        "ablation_probe_interval.txt drifted from its baseline"
    );
}
