//! Integration tests for open delegations (DESIGN.md §17): grant,
//! local fast path, recall on conflict, return, the accounting, and
//! the message savings on an open-churn mix.

use spritely::harness::{
    report, DelegationParams, Protocol, ServerIoParams, Testbed, TestbedParams, TransportParams,
    WriteBehindParams,
};
use spritely::sim::SimDuration;
use spritely::vfs::OpenFlags;

fn params(d: DelegationParams) -> TestbedParams {
    TestbedParams {
        protocol: Protocol::Snfs,
        server_io: ServerIoParams::pipelined(),
        write_behind: WriteBehindParams::pipelined(),
        transport: TransportParams::pipelined(),
        name_cache: true,
        delegation: d,
        trace: true,
        ..TestbedParams::default()
    }
}

/// Client 0 creates a file (granted a write delegation), client 1 then
/// opens it for read: the server must recall client 0's delegation and
/// apply its return — no revoke — before client 1's open completes.
#[test]
fn conflicting_open_recalls_and_returns() {
    let tb = Testbed::build_with_clients(params(DelegationParams::pipelined()), 2);
    {
        let p = tb.proc();
        let sim = tb.sim.clone();
        let h = tb.sim.spawn(async move {
            let fd = p
                .open("/remote/doc", OpenFlags::create_write())
                .await
                .unwrap();
            p.write(fd, &[7u8; 4 * 4096]).await.unwrap();
            p.close(fd).await.unwrap();
            sim.sleep(SimDuration::from_secs(65)).await;
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
    let d = snap.delegation.expect("delegation section present");
    assert!(
        d.stats.grants_write >= 1,
        "create grants a write delegation"
    );
    assert_eq!(d.stats.recalls, 1, "conflicting open recalls it");
    assert_eq!(d.stats.returns, 1, "holder returns it");
    assert_eq!(d.stats.revokes, 0, "no revoke on a healthy network");
    let trace = tb.finish_trace().expect("tracing on");
    assert!(
        trace.ok(),
        "checker violations:\n{}",
        report::trace_summary(&trace)
    );
}

/// One holder, many concurrent conflicts: client 0 creates eight files
/// (eight write delegations), then five other clients storm all eight
/// concurrently. Every recall must resolve by return — the N−1 callback
/// budget and the per-file locks must not starve any of them into a
/// revoke.
#[test]
fn concurrent_recalls_against_one_holder_all_return() {
    let tb = Testbed::build_with_clients(params(DelegationParams::pipelined()), 6);
    {
        let p = tb.proc();
        let sim = tb.sim.clone();
        let h = tb.sim.spawn(async move {
            for f in 0..8 {
                let path = format!("/remote/doc{f}");
                let fd = p.open(&path, OpenFlags::create_write()).await.unwrap();
                p.write(fd, &[7u8; 4 * 4096]).await.unwrap();
                p.close(fd).await.unwrap();
            }
            sim.sleep(SimDuration::from_secs(65)).await;
        });
        tb.sim.run_until(h);
    }
    let mut handles = Vec::new();
    for host in tb.clients.iter().skip(1) {
        let p = host.proc(&tb.sim);
        handles.push(tb.sim.spawn(async move {
            for f in 0..8 {
                let path = format!("/remote/doc{f}");
                let fd = p.open(&path, OpenFlags::read()).await.unwrap();
                while !p.read(fd, 4096).await.unwrap().is_empty() {}
                p.close(fd).await.unwrap();
            }
        }));
    }
    for h in handles {
        tb.sim.run_until(h);
    }
    let snap = tb.stats_snapshot();
    let d = snap.delegation.expect("delegation section present");
    assert_eq!(d.stats.recalls, 8, "one recall per stormed file");
    assert_eq!(d.stats.returns, 8, "every recall resolves by return");
    assert_eq!(d.stats.revokes, 0, "no recall may starve into a revoke");
    let trace = tb.finish_trace().expect("tracing on");
    assert!(
        trace.ok(),
        "checker violations:\n{}",
        report::trace_summary(&trace)
    );
}

const CHURN_BEFORE: usize = 40;
const CHURN_AFTER: usize = 10;

/// The open-churn mix on a two-client SNFS testbed with name caching:
/// client 0 seeds `/remote/doc` (untimed), then re-opens/reads/closes
/// it `CHURN_BEFORE` times, client 1 barges in with a write open, and
/// client 0 churns `CHURN_AFTER` more times. Returns the testbed and
/// the wire messages of the measured mix.
fn open_churn(d: DelegationParams, trace: bool) -> (Testbed, u64) {
    let tb = Testbed::build_with_clients(
        TestbedParams {
            protocol: Protocol::Snfs,
            name_cache: true,
            delegation: d,
            trace,
            ..TestbedParams::default()
        },
        2,
    );
    {
        let p = tb.proc();
        let sim = tb.sim.clone();
        let h = tb.sim.spawn(async move {
            let fd = p
                .open("/remote/doc", OpenFlags::create_write())
                .await
                .unwrap();
            p.write(fd, &[7u8; 8 * 4096]).await.unwrap();
            p.close(fd).await.unwrap();
            // Drain the delayed write-back so the churn phase is clean.
            sim.sleep(SimDuration::from_secs(65)).await;
        });
        tb.sim.run_until(h);
    }
    let m0 = tb.net.messages();
    let churn = |n: usize| {
        let p = tb.clients[0].proc(&tb.sim);
        let h = tb.sim.spawn(async move {
            for _ in 0..n {
                let fd = p.open("/remote/doc", OpenFlags::read()).await.unwrap();
                while !p.read(fd, 4096).await.unwrap().is_empty() {}
                p.close(fd).await.unwrap();
            }
        });
        tb.sim.run_until(h);
    };
    churn(CHURN_BEFORE);
    {
        let p = tb.clients[1].proc(&tb.sim);
        let h = tb.sim.spawn(async move {
            let fd = p
                .open("/remote/doc", OpenFlags::read_write())
                .await
                .unwrap();
            p.write(fd, &[9u8; 4096]).await.unwrap();
            p.close(fd).await.unwrap();
        });
        tb.sim.run_until(h);
    }
    churn(CHURN_AFTER);
    let messages = tb.net.messages() - m0;
    (tb, messages)
}

/// With delegations on, the churn is served locally (grant, local
/// opens, recall on the conflicting open, return), with no revoke, a
/// clean trace and at least 30% fewer messages than the paper protocol.
#[test]
fn open_churn_is_served_locally_and_sheds_messages() {
    let (paper_tb, paper_msgs) = open_churn(DelegationParams::paper(), false);
    assert!(
        paper_tb.stats_snapshot().delegation.is_none(),
        "paper-mode snapshot must not carry a delegation section"
    );
    let (tb, msgs) = open_churn(DelegationParams::pipelined(), true);
    let s = tb
        .stats_snapshot()
        .delegation
        .expect("delegations were enabled")
        .stats;
    assert!(
        s.grants_read > 0 && s.grants_write > 0,
        "expected both delegation kinds granted, got {s:?}"
    );
    assert!(
        s.local_opens >= CHURN_BEFORE as u64,
        "expected >= {CHURN_BEFORE} local opens, got {}",
        s.local_opens
    );
    assert!(
        s.recalls >= 2 && s.returns >= 2,
        "expected the conflicting opens to recall and return (>= 2 each), got {s:?}"
    );
    assert_eq!(s.revokes, 0, "a healthy run must not revoke");
    let reduction = 100.0 * (1.0 - msgs as f64 / paper_msgs as f64);
    assert!(
        reduction >= 30.0,
        "delegations must cut the mix's messages by >= 30%, got {reduction:.1}% \
         ({paper_msgs} -> {msgs})"
    );
    let trace = tb.finish_trace().expect("tracing on");
    assert!(
        trace.ok(),
        "checker violations:\n{}",
        report::trace_summary(&trace)
    );
}
