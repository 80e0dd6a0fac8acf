//! The sharded namespace end to end (DESIGN.md §18): layout-routed
//! clients over independent server shards, cross-shard rename/link via
//! the two-phase coordination path, stale-layout redirects, and
//! atomicity under seeded network faults.

use spritely::harness::{
    DelegationParams, FaultParams, Protocol, RemoteClient, ShardParams, Testbed, TestbedParams,
};
use spritely::proto::{default_shard, NfsStatus, BLOCK_SIZE};
use spritely::sim::SimDuration;
use spritely::snfs::{SnfsClient, LEASE, RECALL_TIMEOUT};
use spritely::trace::EventKind;
use spritely::vfs::OpenFlags;

fn sharded(n: usize, n_clients: usize, trace: bool, faults: FaultParams) -> Testbed {
    Testbed::build_with_clients(
        TestbedParams {
            protocol: Protocol::Snfs,
            shards: ShardParams::sharded(n),
            trace,
            faults,
            ..TestbedParams::default()
        },
        n_clients,
    )
}

fn snfs(tb: &Testbed, i: usize) -> SnfsClient {
    match &tb.clients[i].remote {
        RemoteClient::Snfs(c) => c.clone(),
        _ => panic!("sharded testbeds are SNFS"),
    }
}

/// First name of the form `{prefix}{i}` that the default layout places
/// on `shard` (of `n`).
fn name_on(n: u32, shard: u32, prefix: &str) -> String {
    (0u32..)
        .map(|i| format!("{prefix}{i}"))
        .find(|s| default_shard(s, n) == shard)
        .expect("some index hashes to every shard")
}

#[test]
fn sharded_basic_ops_and_readdir_merges_all_shards() {
    let tb = sharded(2, 1, false, FaultParams::default());
    assert_eq!(tb.shard_hosts.len(), 2);
    let c = snfs(&tb, 0);
    let root = tb.server_fs.root();
    let sim = tb.sim.clone();
    let on0 = name_on(2, 0, "alpha");
    let on1 = name_on(2, 1, "beta");
    let h = sim.spawn({
        let (on0, on1) = (on0.clone(), on1.clone());
        async move {
            for (i, name) in [&on0, &on1].into_iter().enumerate() {
                let (fh, _) = c.create(root, name).await.unwrap();
                c.open(fh, true).await.unwrap();
                c.write(fh, 0, &[i as u8 + 1; BLOCK_SIZE]).await.unwrap();
                c.fsync(fh).await.unwrap();
                c.close(fh, true).await.unwrap();
            }
            // Each file landed on its owning shard's store (fsid = s+1).
            let (fh0, _) = c.lookup(root, &on0).await.unwrap();
            let (fh1, _) = c.lookup(root, &on1).await.unwrap();
            assert_eq!(fh0.fsid, 1, "{on0} owned by shard 0");
            assert_eq!(fh1.fsid, 2, "{on1} owned by shard 1");
            // Root readdir fans out and merges, sorted by name.
            let entries = c.readdir(root).await.unwrap();
            let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
            assert!(names.contains(&on0.as_str()) && names.contains(&on1.as_str()));
            let mut sorted = names.clone();
            sorted.sort_unstable();
            assert_eq!(names, sorted, "merged readdir is name-sorted");
            // Data survives a reopen through either shard.
            c.open(fh1, false).await.unwrap();
            let (data, _) = c.read(fh1, 0, BLOCK_SIZE as u32).await.unwrap();
            assert!(data.iter().all(|&b| b == 2));
            c.close(fh1, false).await.unwrap();
        }
    });
    sim.run_until(h);
    // Both shards actually served traffic.
    let snap = tb.stats_snapshot();
    let sh = snap.shards.expect("sharded run has a shards section");
    assert_eq!(sh.n, 2);
    assert!(sh.shards.iter().all(|s| s.rpcs > 0), "{sh:?}");
}

#[test]
fn cross_shard_rename_is_atomic_and_redirects_stale_clients() {
    let tb = sharded(2, 2, true, FaultParams::default());
    let a = snfs(&tb, 0);
    let b = snfs(&tb, 1);
    let root = tb.server_fs.root();
    let sim = tb.sim.clone();
    // src on shard 0, dst's default owner is shard 1 → the rename must
    // cross shards, with shard 0 coordinating.
    let src = name_on(2, 0, "from");
    let dst = name_on(2, 1, "to");
    let h = sim.spawn({
        let (src, dst) = (src.clone(), dst.clone());
        async move {
            let (fh, _) = a.create(root, &src).await.unwrap();
            a.open(fh, true).await.unwrap();
            a.write(fh, 0, &[7u8; BLOCK_SIZE]).await.unwrap();
            a.fsync(fh).await.unwrap();
            a.close(fh, true).await.unwrap();
            // B warms its view of the namespace (and its cached layout).
            assert_eq!(b.lookup(root, &dst).await.unwrap_err(), NfsStatus::NoEnt);
            a.rename(root, &src, root, &dst).await.unwrap();
            // The source name is gone everywhere; the destination
            // resolves — for B this takes a WrongShard redirect, since
            // its cached layout still points at dst's default owner.
            assert_eq!(a.lookup(root, &src).await.unwrap_err(), NfsStatus::NoEnt);
            let (via_b, _) = b.lookup(root, &dst).await.unwrap();
            assert_eq!(via_b, fh, "same file object after the move");
            assert_eq!(via_b.fsid, 1, "the file stayed on its store");
            // The bytes came along.
            b.open(fh, false).await.unwrap();
            let (data, _) = b.read(fh, 0, BLOCK_SIZE as u32).await.unwrap();
            assert!(data.iter().all(|&x| x == 7));
            b.close(fh, false).await.unwrap();
        }
    });
    sim.run_until(h);
    // The authoritative layout moved the name and bumped the epoch.
    let layout = tb.layout.as_ref().expect("sharded testbed has a layout");
    assert_eq!(layout.borrow().owner(&dst), 0, "dst now owned by shard 0");
    assert!(layout.borrow().epoch() > 1);
    let snap = tb.stats_snapshot();
    let sh = snap.shards.expect("shards section");
    assert_eq!(
        sh.shards.iter().map(|s| s.cross_renames).sum::<u64>(),
        1,
        "exactly one coordinated rename: {sh:?}"
    );
    assert!(
        sh.shards.iter().map(|s| s.wrong_shard_replies).sum::<u64>() >= 1,
        "B's stale lookup was redirected: {sh:?}"
    );
    // Checker rule 10 holds over the whole trace.
    let report = tb.finish_trace().expect("trace was on");
    assert!(report.ok(), "violations: {:?}", report.violations);
}

#[test]
fn cross_shard_link_spans_stores_and_keeps_one_inode() {
    let tb = sharded(2, 1, true, FaultParams::default());
    let c = snfs(&tb, 0);
    let root = tb.server_fs.root();
    let sim = tb.sim.clone();
    let orig = name_on(2, 1, "file");
    let alias = name_on(2, 0, "ln");
    let h = sim.spawn({
        let (orig, alias) = (orig.clone(), alias.clone());
        async move {
            let (fh, _) = c.create(root, &orig).await.unwrap();
            c.open(fh, true).await.unwrap();
            c.write(fh, 0, b"linked bytes").await.unwrap();
            c.fsync(fh).await.unwrap();
            c.close(fh, true).await.unwrap();
            assert_eq!(fh.fsid, 2, "original owned by shard 1");
            // alias's default owner is shard 0, but the file lives on
            // shard 1's store — the link must cross shards.
            let attr = c.link(fh, root, &alias).await.unwrap();
            assert_eq!(attr.nlink, 2);
            let (via_alias, _) = c.lookup(root, &alias).await.unwrap();
            assert_eq!(via_alias, fh, "hard link shares the inode");
            // Linking again fails cleanly (target exists), without
            // leaving a dangling transaction.
            assert_eq!(
                c.link(fh, root, &alias).await.unwrap_err(),
                NfsStatus::Exist
            );
            // Removing the original keeps the file reachable via alias.
            c.remove(root, &orig, Some(fh)).await.unwrap();
            let (still, _) = c.lookup(root, &alias).await.unwrap();
            assert_eq!(still, fh);
            c.open(fh, false).await.unwrap();
            let (data, _) = c.read(fh, 0, 64).await.unwrap();
            assert_eq!(&data, b"linked bytes");
            c.close(fh, false).await.unwrap();
        }
    });
    sim.run_until(h);
    let snap = tb.stats_snapshot();
    let sh = snap.shards.expect("shards section");
    assert_eq!(sh.shards.iter().map(|s| s.cross_links).sum::<u64>(), 1);
    let report = tb.finish_trace().expect("trace was on");
    assert!(report.ok(), "violations: {:?}", report.violations);
}

#[test]
fn cross_shard_ops_converge_under_seeded_faults() {
    // Drops, duplicates, delays and reply losses hit every link —
    // including the inter-shard coordination callers — while one client
    // cross-renames a small working set. The prepare/commit retry loops
    // and the participants' idempotent transaction table must keep every
    // rename atomic, and rule 10 must hold on the trace.
    const FILES: u32 = 3;
    let tb = sharded(4, 1, true, FaultParams::chaos(42));
    let c = snfs(&tb, 0);
    let root = tb.server_fs.root();
    let sim = tb.sim.clone();
    // Destination names chosen so every rename crosses shards.
    let pairs: Vec<(String, String)> = (0..FILES)
        .map(|i| {
            let src = format!("work{i}");
            let s = default_shard(&src, 4);
            let dst = name_on(4, (s + 1) % 4, &format!("moved{i}_"));
            (src, dst)
        })
        .collect();
    let h = sim.spawn({
        let pairs = pairs.clone();
        let sim = sim.clone();
        async move {
            macro_rules! insist {
                ($e:expr) => {{
                    loop {
                        match $e.await {
                            Ok(v) => break v,
                            Err(_) => sim.sleep(SimDuration::from_millis(500)).await,
                        }
                    }
                }};
            }
            for (i, (src, _)) in pairs.iter().enumerate() {
                let (fh, _) = insist!(c.create(root, src));
                insist!(c.open(fh, true));
                insist!(c.write(fh, 0, &[i as u8 + 1; BLOCK_SIZE]));
                insist!(c.fsync(fh));
                insist!(c.close(fh, true));
            }
            for (src, dst) in &pairs {
                // A rename is not idempotent across *calls* (a re-issued
                // rename after a timed-out-but-executed first call sees
                // NoEnt), so the retry loop confirms the outcome by
                // looking the destination up.
                loop {
                    match c.rename(root, src, root, dst).await {
                        Ok(()) => break,
                        Err(_) => {
                            if c.lookup(root, dst).await.is_ok() {
                                break;
                            }
                            sim.sleep(SimDuration::from_millis(500)).await;
                        }
                    }
                }
            }
            // Every destination readable with the right bytes, every
            // source gone.
            for (i, (src, dst)) in pairs.iter().enumerate() {
                let (fh, _) = insist!(c.lookup(root, dst));
                insist!(c.open(fh, false));
                let (data, _) = insist!(c.read(fh, 0, BLOCK_SIZE as u32));
                assert!(data.iter().all(|&x| x == i as u8 + 1), "{dst}");
                insist!(c.close(fh, false));
                loop {
                    match c.lookup(root, src).await {
                        Err(NfsStatus::NoEnt) => break,
                        Err(_) => sim.sleep(SimDuration::from_millis(500)).await,
                        Ok(_) => panic!("{src} must not survive its rename"),
                    }
                }
            }
            // Let write-backs, commits and keepalives drain.
            sim.sleep(SimDuration::from_secs(70)).await;
        }
    });
    sim.run_until(h);
    let snap = tb.stats_snapshot();
    let sh = snap.shards.expect("shards section");
    assert_eq!(
        sh.shards.iter().map(|s| s.cross_renames).sum::<u64>(),
        u64::from(FILES),
        "every rename crossed shards exactly once: {sh:?}"
    );
    let f = snap.faults.expect("faulted run has fault accounting");
    assert!(f.drops + f.dups + f.delays + f.reply_losses > 0, "{f:?}");
    let report = tb.finish_trace().expect("trace was on");
    assert!(report.ok(), "violations: {:?}", report.violations);
}

#[test]
fn chaos_shard_partition_mid_rename_converges() {
    // The packaged shard chaos workload: four shards, two clients, a
    // network partition dropped on the coordinating shard's inter-shard
    // links in the middle of a burst of cross-shard renames, on top of
    // seeded drop/dup/delay faults. The faulted run must converge to a
    // server state digest-identical to the clean run, with zero checker
    // violations and every injected fault absorbed.
    let v = spritely::harness::chaos_shard(21);
    assert!(v.injected() > 0, "chaos run injected no faults");
    assert!(v.converged(), "{}", v.report());
}

#[test]
fn shards_section_absent_in_paper_configuration() {
    // ShardParams::paper() is the one-shard layout: exactly one SNFS
    // shard host, and none of the outputs only a sharded run has — no
    // `shards` snapshot section, no `shards` trace meta, and no
    // ShardRoute records even for root-level name operations.
    let tb = Testbed::build(TestbedParams {
        protocol: Protocol::Snfs,
        shards: ShardParams::paper(),
        trace: true,
        ..TestbedParams::default()
    });
    assert_eq!(tb.shard_hosts.len(), 1);
    let p = tb.proc();
    let h = tb.sim.spawn(async move {
        p.mkdir("/remote/d").await.expect("mkdir");
        let fd = p
            .open("/remote/f", OpenFlags::create_write())
            .await
            .expect("create");
        p.write(fd, b"x").await.expect("write");
        p.fsync(fd).await.expect("fsync");
        p.close(fd).await.expect("close");
        p.rename("/remote/f", "/remote/g").await.expect("rename");
    });
    tb.sim.run_until(h);
    let json = tb.stats_snapshot().to_json();
    assert!(!json.contains("\"shards\""), "{json}");
    let trace = tb.finish_trace().expect("tracing on");
    assert!(trace.ok(), "violations: {:?}", trace.violations);
    let mut server_disk_events = 0;
    for e in &trace.events {
        assert!(
            !matches!(
                e.kind,
                EventKind::ShardRoute { .. } | EventKind::Meta { key: "shards", .. }
            ),
            "paper mode emitted a sharded-only trace record: {:?}",
            e.kind
        );
        // Host names stay the paper testbed's, never shard-numbered.
        if let EventKind::DiskQueue { disk, .. } = &e.kind {
            if disk.starts_with("server") {
                assert_eq!(disk, "server-disk");
                server_disk_events += 1;
            }
        }
    }
    assert!(server_disk_events > 0, "the fsync reached no server disk");
    let tb2 = sharded(2, 1, false, FaultParams::default());
    let json2 = tb2.stats_snapshot().to_json();
    assert!(json2.contains("\"shards\":{\"n\":2"), "{json2}");
}

#[test]
#[should_panic(expected = "need at least one shard")]
fn zero_shards_are_rejected() {
    Testbed::build(TestbedParams {
        shards: ShardParams { n: 0 },
        ..TestbedParams::default()
    });
}

#[test]
#[should_panic(expected = "a sharded namespace requires an SNFS protocol")]
fn sharded_nfs_is_rejected() {
    Testbed::build(TestbedParams {
        protocol: Protocol::Nfs,
        shards: ShardParams::sharded(2),
        ..TestbedParams::default()
    });
}

#[test]
#[should_panic(expected = "name caching is not supported over a sharded namespace")]
fn sharded_name_cache_is_rejected() {
    Testbed::build(TestbedParams {
        protocol: Protocol::Snfs,
        shards: ShardParams::sharded(2),
        name_cache: true,
        ..TestbedParams::default()
    });
}

#[test]
#[should_panic(expected = "delegations need faults.max_delay")]
fn delegation_delay_at_the_lease_gap_is_rejected() {
    // A message delayed by recall timeout − lease could carry a lease
    // renewal past the revoke (DESIGN.md §17.3).
    Testbed::build(TestbedParams {
        protocol: Protocol::Snfs,
        delegation: DelegationParams::pipelined(),
        faults: FaultParams {
            delay: 0.1,
            max_delay: RECALL_TIMEOUT - LEASE,
            ..FaultParams::default()
        },
        ..TestbedParams::default()
    });
}

#[test]
fn snapshot_sums_server_io_over_every_shard() {
    // Every shard's disk takes writes; the snapshot's server_io section
    // is their sum, not shard 0's alone.
    let tb = sharded(2, 1, false, FaultParams::default());
    let p = tb.proc();
    let names: Vec<String> = (0..2).map(|s| name_on(2, s, "w")).collect();
    let h = tb.sim.spawn(async move {
        for name in names {
            let fd = p
                .open(&format!("/remote/{name}"), OpenFlags::create_write())
                .await
                .expect("create");
            p.write(fd, &[7u8; 4 * BLOCK_SIZE]).await.expect("write");
            p.fsync(fd).await.expect("fsync");
            p.close(fd).await.expect("close");
        }
    });
    tb.sim.run_until(h);
    let per_shard: Vec<u64> = tb
        .shard_hosts
        .iter()
        .map(|sh| sh.fs.disk().stats().writes)
        .collect();
    assert!(per_shard.iter().all(|&w| w > 0), "{per_shard:?}");
    let snap = tb.stats_snapshot();
    assert_eq!(snap.server_io.disk_writes, per_shard.iter().sum::<u64>());
    let reads: u64 = tb
        .shard_hosts
        .iter()
        .map(|sh| sh.fs.disk().stats().reads)
        .sum();
    assert_eq!(snap.server_io.disk_reads, reads);
}

#[test]
fn one_shard_scaling_row_reports_peak_client_cache() {
    // The 1 × 128 row of the sharded scaling table: the peak client
    // cache comes from the clients, whatever the shard count.
    let one = spritely::harness::run_scaling_shards(1, 128, 42);
    assert!(one.peak_client_kb > 0, "1-shard peak client cache is 0 KiB");
    assert!(one.stats.shards.is_none());
    // The 8 × 128 row clears 1.5× the one-server throughput on the same
    // shared-nothing workload (the real curve is steeper; see
    // BENCH_scaling.json).
    let eight = spritely::harness::run_scaling_shards(8, 128, 42);
    let speedup = eight.throughput / one.throughput;
    assert!(
        speedup >= 1.5,
        "sharding speedup {speedup:.2}x below the 1.5x gate"
    );
}
