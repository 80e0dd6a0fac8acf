//! Paper-mode regression gate: with the default `ServerIoParams::paper()`
//! server (FIFO disk arm, 896-block cache, no single-flight coalescing,
//! 4 service threads) and the default `TransportParams::paper()` wire
//! (one message per RPC, no piggybacked attributes, shared bus, fixed
//! retransmit timeout), every artifact of the catalogue
//! (`spritely::harness::artifacts`) must stay byte-identical to its
//! committed `baselines/` snapshot. The one exception is the §2.3
//! `scaling` entry: its multi-client numbers moved when delegations
//! landed and are not baselined until that drift is explained. This is
//! what lets the server I/O pipeline (`ServerIoParams::pipelined`) and
//! the transport pipeline (`TransportParams::pipelined`) land as pure
//! opt-ins: the measured 1989 system is reproduced bit-for-bit unless
//! the pipelines are asked for.
//!
//! Each test renders one catalogue family, the same objects the CLI
//! prints and the benches write, and runs it through one comparison
//! loop: every artifact against `baselines/<name>.txt` and every JSON
//! snapshot against its file. The figure, flush-latency, transport and
//! traced-Andrew artifacts also pin the multi-client and single-server
//! testbed topologies and the latency profile byte for byte. The flush,
//! transport and server-scaling tests also hold the perf-mode gains the
//! opt-in pipelines promise.

use std::fs;

use spritely::harness::artifacts::{self, Family};
use spritely::harness::{
    report, run_data_scaling, Protocol, Testbed, TestbedParams, TransportParams,
};
use spritely::trace::EventKind;
use spritely::vfs::OpenFlags;

fn baseline(file: &str) -> String {
    let path = format!("{}/baselines/{file}", env!("CARGO_MANIFEST_DIR"));
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// The 1-based number and the two sides of the first line where `a`
/// and `b` differ.
fn first_difference<'a>(a: &'a str, b: &'a str) -> (usize, &'a str, &'a str) {
    let (mut la, mut lb) = (a.lines(), b.lines());
    for n in 1.. {
        match (la.next(), lb.next()) {
            (None, None) => break,
            (x, y) if x != y => {
                return (
                    n,
                    x.unwrap_or("<end of file>"),
                    y.unwrap_or("<end of file>"),
                );
            }
            _ => {}
        }
    }
    (0, "<line endings differ>", "")
}

/// The gate: each artifact of `family` against `baselines/<name>.txt`
/// and each JSON snapshot against `baselines/<file>`. A mismatch names
/// the file and its first differing line.
fn assert_matches_baselines<R>(family: &Family<R>) {
    let rendered = family
        .artifacts
        .iter()
        .map(|a| (format!("{}.txt", a.name), a.rendered()))
        .chain(
            family
                .snapshots
                .iter()
                .map(|(file, json)| (file.to_string(), json.clone())),
        );
    for (file, got) in rendered {
        let want = baseline(&file);
        if got != want {
            let (n, want_line, got_line) = first_difference(&want, &got);
            panic!(
                "{file} drifted from its baseline at line {n}:\n  \
                 baseline: {want_line}\n  rendered: {got_line}"
            );
        }
    }
}

#[test]
fn paper_mode_andrew_tables_match_baselines() {
    // Tables 5-1/5-2, both figures, the RPC-latency table, and the
    // traced run's trace summary, latency profile and stats snapshot.
    let andrew = artifacts::andrew(42);
    // The default transport is the paper's: the batcher, the piggyback
    // consumer, and the compound machinery must all be inert.
    for r in &andrew.runs.configs {
        let t = &r.stats.transport;
        assert_eq!(t.batches, 0, "paper transport must never batch");
        assert_eq!(t.saved_round_trips, 0);
        assert_eq!(t.attr_elisions, 0, "paper clients must probe, not elide");
        assert!(
            r.stats.delegation.is_none(),
            "paper runs must not report a delegation section"
        );
    }
    let trace = andrew.runs.traced.trace.as_ref().expect("tracing on");
    assert!(trace.ok(), "checker violations: {:?}", trace.violations);
    assert_matches_baselines(&andrew);
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
    assert_matches_baselines(&artifacts::sort());
}

#[test]
fn single_client_entries_match_baselines() {
    for family in [
        artifacts::micro,
        artifacts::temp_lifetime,
        artifacts::close_bug,
        artifacts::delayed_close,
        artifacts::write_delay,
    ] {
        assert_matches_baselines(&family());
    }
}

#[test]
fn flush_latency_matches_baselines() {
    let flush = artifacts::flush_latency();
    assert_matches_baselines(&flush);
    let trace = flush.runs.traced.trace.as_ref().expect("tracing on");
    assert!(
        trace.ok(),
        "trace checker found violations:\n{}",
        report::trace_summary(trace)
    );
    let speedup = flush.runs.speedup();
    assert!(
        speedup >= 2.0,
        "write gathering + pipelining must at least halve flush latency, got {speedup:.2}x"
    );
}

#[test]
fn rpc_transport_matches_baselines() {
    // Andrew on one client and an 8-client shared read, each on both
    // transports.
    let transport = artifacts::rpc_transport();
    assert_matches_baselines(&transport);
    let cmp = &transport.runs;
    let total_reduction = cmp.total_reduction();
    assert!(
        total_reduction >= 25.0,
        "pipelined transport must cut total RPC messages by >= 25%, got {total_reduction:.1}%"
    );
    let scaling_speedup = cmp.scaling_speedup();
    assert!(
        scaling_speedup >= 1.2,
        "pipelined transport must cut 8-client makespan by >= 1.2x, got {scaling_speedup:.2}x"
    );
    let andrew_speedup = cmp.andrew_speedup();
    assert!(
        andrew_speedup >= 0.98,
        "the Nagle batcher must not slow the serial Andrew run, got {andrew_speedup:.2}x"
    );
    // A traced pipelined run feeds the batch-conservation and
    // at-most-once checker rules with a real batched schedule.
    let traced = run_data_scaling(TransportParams::pipelined(), 2, true);
    let trace = traced.tb.finish_trace().expect("tracing on");
    assert!(
        trace.ok(),
        "trace checker found violations:\n{}",
        report::trace_summary(&trace)
    );
}

#[test]
fn server_scaling_matches_baselines() {
    // Paper vs pipelined server I/O at 4 and 8 clients, and the
    // 8-client pipelined run's stats snapshot.
    let scaling = artifacts::server_scaling();
    assert_matches_baselines(&scaling);
    let speedup_at_8 = scaling.runs.gain_at_8;
    assert!(
        speedup_at_8 >= 1.3,
        "pipelined server I/O must cut 8-client makespan by >= 1.3x, got {speedup_at_8:.2}x"
    );
    // A traced pipelined run feeds the disk-queue/reorder checker rule
    // with a real C-LOOK schedule; any bypass past the aging limit or an
    // unqueued completion is a violation.
    let trace = scaling.runs.traced.trace.as_ref().expect("tracing was on");
    assert!(
        trace.ok(),
        "trace checker found violations:\n{}",
        report::trace_summary(trace)
    );
}

#[test]
fn name_cache_ablation_matches_baseline() {
    assert_matches_baselines(&artifacts::name_cache());
}

#[test]
fn probe_interval_ablation_matches_baseline() {
    assert_matches_baselines(&artifacts::probe_interval());
}
