//! A dropped `Testbed` frees everything it allocated.
//!
//! Two reference cycles used to keep every testbed alive for the rest of
//! the process: each daemon task holds a `Sim` clone while the
//! simulation holds the task, and the SNFS server reaches its clients
//! (and peer shards) through callers whose endpoints reach back into it.
//! This binary counts live heap bytes with its own global allocator and
//! checks that build → short workload → drop returns to the same count.
//!
//! The counter is process-global, so the binary holds a single test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use spritely::harness::{
    DelegationParams, Protocol, ServerIoParams, ShardParams, Testbed, TestbedParams,
    TransportParams, WriteBehindParams,
};
use spritely::proto::default_shard;
use spritely::sim::{Sim, SimDuration};
use spritely::vfs::{OpenFlags, Proc};

struct Counting;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every method forwards to `System` unchanged and only adds
// bookkeeping on the side.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE_BYTES.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn live_bytes() -> isize {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Two clients share one file: client 1 writes it and keeps the dirty
/// blocks, client 2 reads it (under SNFS that forces a write-back
/// callback), then the clock runs past a 30 s update tick.
async fn shared_file(sim: Sim, writer: Proc, reader: Proc) {
    let fd = writer
        .open("/remote/shared", OpenFlags::create_write())
        .await
        .unwrap();
    writer.write(fd, &[7u8; 4 * 4096]).await.unwrap();
    writer.close(fd).await.unwrap();
    let fd = reader
        .open("/remote/shared", OpenFlags::read())
        .await
        .unwrap();
    let mut got = 0;
    loop {
        let chunk = reader.read(fd, 4096).await.unwrap();
        if chunk.is_empty() {
            break;
        }
        assert!(chunk.iter().all(|&b| b == 7));
        got += chunk.len();
    }
    assert_eq!(got, 4 * 4096);
    reader.close(fd).await.unwrap();
    sim.sleep(SimDuration::from_secs(35)).await;
}

/// Builds a two-client testbed, runs [`shared_file`] on it, and drops it.
/// Under the local protocol each host has only its own disk, so the
/// first host also reads.
fn build_run_drop(params: TestbedParams) {
    let tb = Testbed::build_with_clients(params, 2);
    let reader_host = usize::from(params.protocol != Protocol::Local);
    let (writer, reader) = (tb.proc(), tb.clients[reader_host].proc(&tb.sim));
    let h = tb.sim.spawn(shared_file(tb.sim.clone(), writer, reader));
    tb.sim.run_until(h);
    if let Some(server) = tb.stats_snapshot().server {
        assert!(
            server.stats.callbacks_sent > 0,
            "the SNFS read must call back"
        );
    }
    if tb.params.trace {
        let report = tb.finish_trace().expect("tracing on");
        assert!(report.ok(), "violations: {:?}", report.violations);
    }
}

/// First name of the form `{prefix}{i}` the default layout places on
/// `shard` of `n`.
fn name_on(n: u32, shard: u32, prefix: &str) -> String {
    (0u32..)
        .map(|i| format!("{prefix}{i}"))
        .find(|s| default_shard(s, n) == shard)
        .expect("some index hashes to every shard")
}

/// A 4-shard SNFS testbed: [`shared_file`], then a rename from shard 0
/// to a name owned by shard 1, which runs the two-phase cross-shard path.
fn sharded_rename() {
    let tb = Testbed::build_with_clients(
        TestbedParams {
            protocol: Protocol::Snfs,
            shards: ShardParams::sharded(4),
            ..TestbedParams::default()
        },
        2,
    );
    let (writer, reader) = (tb.proc(), tb.clients[1].proc(&tb.sim));
    let sim = tb.sim.clone();
    let (src, dst) = (
        format!("/remote/{}", name_on(4, 0, "from")),
        format!("/remote/{}", name_on(4, 1, "to")),
    );
    let p = tb.proc();
    let h = tb.sim.spawn(async move {
        shared_file(sim, writer, reader).await;
        let fd = p.open(&src, OpenFlags::create_write()).await.unwrap();
        p.write(fd, &[1u8; 4096]).await.unwrap();
        p.close(fd).await.unwrap();
        p.rename(&src, &dst).await.unwrap();
        assert_eq!(p.stat(&dst).await.unwrap().size, 4096);
    });
    tb.sim.run_until(h);
    let shards = tb.stats_snapshot().shards.expect("sharded run");
    assert_eq!(
        shards.shards.iter().map(|s| s.cross_renames).sum::<u64>(),
        1,
        "the rename must cross shards"
    );
}

/// An SNFS testbed moved into a task of its own simulation and dropped
/// there, so its teardown runs while the executor is polling.
fn dropped_inside_its_own_task() {
    let tb = Testbed::build_with_clients(TestbedParams::default(), 2);
    let sim = tb.sim.clone();
    let h = sim.spawn(async move {
        let (writer, reader) = (tb.proc(), tb.clients[1].proc(&tb.sim));
        shared_file(tb.sim.clone(), writer, reader).await;
        drop(tb);
    });
    sim.run_until(h);
}

fn params(protocol: Protocol) -> TestbedParams {
    TestbedParams {
        protocol,
        ..TestbedParams::default()
    }
}

#[test]
fn a_dropped_testbed_frees_every_byte() {
    let cases: [(&str, fn()); 7] = [
        ("local", || build_run_drop(params(Protocol::Local))),
        ("NFS", || build_run_drop(params(Protocol::Nfs))),
        ("SNFS paper", || build_run_drop(params(Protocol::Snfs))),
        ("SNFS traced", || {
            build_run_drop(TestbedParams {
                trace: true,
                ..params(Protocol::Snfs)
            })
        }),
        ("SNFS pipelined + delegations", || {
            build_run_drop(TestbedParams {
                server_io: ServerIoParams::pipelined(),
                transport: TransportParams::pipelined(),
                write_behind: WriteBehindParams::pipelined(),
                delegation: DelegationParams::pipelined(),
                ..params(Protocol::Snfs)
            })
        }),
        ("SNFS 4 shards + cross-shard rename", sharded_rename),
        (
            "SNFS dropped inside its own task",
            dropped_inside_its_own_task,
        ),
    ];
    // Warm-up: one-time allocations (thread-locals, lazily built
    // statics) belong to the process, not to any testbed.
    for (_, case) in &cases {
        case();
    }
    let mut leaks = Vec::new();
    for (name, case) in &cases {
        let before = live_bytes();
        case();
        let leaked = live_bytes() - before;
        if leaked != 0 {
            leaks.push(format!("{name}: {leaked} bytes"));
        }
    }
    assert!(
        leaks.is_empty(),
        "testbeds left live bytes after drop:\n{}",
        leaks.join("\n")
    );
}
