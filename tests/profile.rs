//! Causal latency profiler: claim coverage, exact phase accounting,
//! byte-stable artifacts, execution identity, and the regression-diff
//! gate (`spritely compare`).

use spritely::harness::{
    compare_json, run_andrew_with, run_flush_with, run_scaling_with, AndrewRun, CompareOptions,
    DelegationParams, Protocol, ServerIoParams, Testbed, TestbedParams, WriteBehindParams,
};
use spritely::trace::{profile_trace, EventKind, Phase};
use spritely::vfs::OpenFlags;

fn andrew(trace: bool) -> AndrewRun {
    run_andrew_with(
        TestbedParams {
            protocol: Protocol::Snfs,
            tmp_remote: true,
            trace,
            ..TestbedParams::default()
        },
        42,
    )
}

#[test]
fn every_rpc_claimed_once_and_phases_partition_each_span() {
    let run = andrew(true);
    let trace = run.trace.as_ref().expect("tracing was on");
    let rpc_calls = trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::RpcCall { .. }))
        .count() as u64;
    let p = profile_trace(&trace.events);
    assert_eq!(p.total_rpcs, rpc_calls, "profiler saw every RpcCall");
    assert_eq!(
        p.claims.total(),
        rpc_calls,
        "each RpcCall lands in exactly one claim class: {:?}",
        p.claims
    );
    assert!(p.claims.op > 0, "ops claimed RPCs");
    for op in &p.ops {
        let sum: u64 = op.phase_us.iter().sum();
        assert_eq!(
            sum,
            op.total_us(),
            "span {}@{} does not partition its wall time",
            op.op,
            op.begin_us
        );
    }
    assert!(
        p.attributed_fraction() >= 0.99,
        "Andrew attribution below 99%: {:.4}",
        p.attributed_fraction()
    );
    // A remote-mount run with no wire, disk or client-local time means
    // the span reconstruction broke.
    assert!(p.phase_total(Phase::Net) > 0, "network phase is zero");
    assert!(
        p.phase_total(Phase::DiskQueue) + p.phase_total(Phase::DiskService) > 0,
        "disk phases are zero"
    );
    assert!(
        p.phase_total(Phase::CacheLocal) > 0,
        "cache-local phase is zero"
    );
}

/// A delegation recall is a server-originated RPC issued inside the
/// conflicting open's handler, and the return it provokes is a client
/// RPC riding the callback — both are new RPC shapes the delegation
/// subsystem introduced, and the profiler must claim every one of them
/// or the partition invariant (`claims.total() == total_rpcs`) breaks.
#[test]
fn recall_rpcs_are_claimed_by_the_profiler() {
    let tb = Testbed::build_with_clients(
        TestbedParams {
            protocol: Protocol::Snfs,
            delegation: DelegationParams::pipelined(),
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
        });
        tb.sim.run_until(h);
    }
    {
        // The conflicting open: recalls client 0's write delegation.
        let p = tb.clients[1].proc(&tb.sim);
        let h = tb.sim.spawn(async move {
            let fd = p.open("/remote/doc", OpenFlags::read()).await.unwrap();
            while !p.read(fd, 4096).await.unwrap().is_empty() {}
            p.close(fd).await.unwrap();
        });
        tb.sim.run_until(h);
    }
    let server = tb.snfs_server.clone().expect("snfs server");
    assert_eq!(server.delegation_stats().recalls, 1, "a recall happened");
    let trace = tb.finish_trace().expect("tracing on");
    let rpc_calls = trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::RpcCall { .. }))
        .count() as u64;
    let p = profile_trace(&trace.events);
    assert_eq!(p.total_rpcs, rpc_calls, "profiler saw every RpcCall");
    assert_eq!(
        p.claims.total(),
        rpc_calls,
        "each RpcCall — recall callback and delegation return included — \
         lands in exactly one claim class: {:?}",
        p.claims
    );
    assert!(
        p.claims.callback >= 1,
        "the recall was claimed as a handler-issued callback: {:?}",
        p.claims
    );
}

/// The traced 4-client SNFS scaling run on the pipelined server I/O
/// (C-LOOK arm, server block cache, wider admission): its profile is
/// fully attributed, its trace passes the checker (disk-queue/reorder
/// rule included), and it beats the paper's FIFO server on makespan.
#[test]
fn scaling_run_attribution_is_above_99_percent() {
    let scaling = |server_io: ServerIoParams, trace: bool| {
        run_scaling_with(
            TestbedParams {
                protocol: Protocol::Snfs,
                tmp_remote: true,
                server_io,
                trace,
                ..TestbedParams::default()
            },
            4,
            42,
        )
    };
    let run = scaling(ServerIoParams::pipelined(), true);
    let trace = run.trace.as_ref().expect("tracing was on");
    assert!(trace.ok(), "checker violations: {:?}", trace.violations);
    let p = profile_trace(&trace.events);
    assert_eq!(p.claims.total(), p.total_rpcs);
    assert!(
        p.attributed_fraction() >= 0.99,
        "scaling attribution below 99%: {:.4}",
        p.attributed_fraction()
    );
    let paper = scaling(ServerIoParams::paper(), false);
    assert!(
        run.makespan < paper.makespan,
        "pipelined server I/O ({}) is not faster than the paper server ({})",
        run.makespan,
        paper.makespan
    );
}

#[test]
fn profile_json_is_byte_identical_for_the_same_seed() {
    let a = andrew(true);
    let b = andrew(true);
    let pa = profile_trace(&a.trace.expect("traced").events);
    let pb = profile_trace(&b.trace.expect("traced").events);
    assert_eq!(pa.to_json(), pb.to_json());
}

#[test]
fn profiling_is_pure_post_processing() {
    // A traced run (whose snapshot now carries the profile section)
    // must execute identically to the untraced run: tracing and
    // profiling never await, never consume randomness.
    let traced = andrew(true);
    let untraced = andrew(false);
    assert_eq!(traced.times.total(), untraced.times.total());
    assert_eq!(traced.ops_with_tail.total(), untraced.ops_with_tail.total());
    assert!(traced.stats.profile.is_some());
    assert!(untraced.stats.profile.is_none());
    let mut stripped = traced.stats.clone();
    stripped.profile = None;
    assert_eq!(
        stripped.to_json(),
        untraced.stats.to_json(),
        "snapshots identical once the profile section is removed"
    );
}

#[test]
fn compare_gate_flags_an_injected_regression() {
    let run = run_flush_with(
        "pipelined",
        TestbedParams {
            protocol: Protocol::Snfs,
            update_enabled: false,
            write_behind: WriteBehindParams::pipelined(),
            trace: true,
            ..TestbedParams::default()
        },
        64,
    );
    let json = run.stats.to_json();

    // Same document: clean bill of health.
    let same = compare_json(&json, &json, &CompareOptions::default()).expect("parse");
    assert!(same.ok(), "identical snapshots must compare clean");

    // Inject a >= 10% regression into one numeric leaf.
    let key = "\"rpc_total\":";
    let i = json.find(key).expect("snapshot has rpc_total") + key.len();
    let end = i + json[i..]
        .find(|c: char| !c.is_ascii_digit())
        .expect("number terminated");
    let v: u64 = json[i..end].parse().expect("numeric rpc_total");
    let bumped = format!("{}{}{}", &json[..i], v * 2, &json[end..]);
    let diff = compare_json(&json, &bumped, &CompareOptions::default()).expect("parse");
    assert!(!diff.ok(), "doubled rpc_total must be flagged");
    assert!(diff.diffs.iter().any(|d| d.path.contains("rpc_total")));
}
