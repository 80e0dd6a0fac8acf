//! Per-layer counters read from a testbed's public handles.
//!
//! [`read`] takes one reading of every counter; [`Counters::since`]
//! turns two readings into what happened between them. Counters are
//! sums over every server (shard) and client, so one code path serves
//! the single-server and the sharded topologies.

use std::collections::BTreeMap;

use spritely::harness::{RemoteClient, Testbed};
use spritely::localfs::LocalFs;
use spritely::snfs::SnfsServer;
use spritely::trace::{OpProfile, Phase, Profile};

/// Counters that are high-water marks or levels: a later reading
/// replaces an earlier one instead of being differenced.
const LEVELS: [&str; 5] = [
    "blockdev.queue_peak",
    "core.callback_peak",
    "core.state_entries",
    "sim.peak_live_tasks",
    "sim.peak_live_timers",
];

/// One reading of every counter, by metric name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters(pub BTreeMap<&'static str, f64>);

impl Counters {
    /// What changed from `before` to `self`: differences for counts, the
    /// later value for levels and peaks.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(&k, &v)| {
                    let d = if LEVELS.contains(&k) {
                        v
                    } else {
                        v - before.0.get(k).copied().unwrap_or(0.0)
                    };
                    (k, d)
                })
                .collect(),
        )
    }

    /// Adds `other` into `self`: sums for counts, maxima for levels.
    pub fn accumulate(&mut self, other: &Counters) {
        for (&k, &v) in &other.0 {
            let e = self.0.entry(k).or_insert(0.0);
            *e = if LEVELS.contains(&k) {
                e.max(v)
            } else {
                *e + v
            };
        }
    }

    fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_insert(0.0) += v;
    }

    fn peak(&mut self, name: &'static str, v: f64) {
        let e = self.0.entry(name).or_insert(0.0);
        *e = e.max(v);
    }

    /// The value of `name` (0 when absent).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// The file systems the servers export (one per shard).
fn server_fss(tb: &Testbed) -> Vec<LocalFs> {
    if tb.shard_hosts.is_empty() {
        vec![tb.server_fs.clone()]
    } else {
        tb.shard_hosts.iter().map(|sh| sh.fs.clone()).collect()
    }
}

/// The SNFS servers (one per shard; none for plain NFS).
fn snfs_servers(tb: &Testbed) -> Vec<SnfsServer> {
    if tb.shard_hosts.is_empty() {
        tb.snfs_server.iter().cloned().collect()
    } else {
        tb.shard_hosts.iter().map(|sh| sh.server.clone()).collect()
    }
}

/// Reads every counter of `tb` now.
pub fn read(tb: &Testbed) -> Counters {
    let mut c = Counters::default();

    // sim: the executor.
    let s = tb.sim.stats();
    c.add("sim.events", s.events_retired() as f64);
    c.add("sim.polls", s.polls as f64);
    c.add("sim.timer_fires", s.timer_fires as f64);
    c.add("sim.timer_cancels", s.timer_cancels as f64);
    c.add("sim.stale_wakes", s.stale_wakes as f64);
    c.add("sim.peak_live_tasks", s.peak_live_tasks as f64);
    c.add("sim.peak_live_timers", s.peak_live_timers as f64);

    // rpcnet: wire, transport pipeline, endpoints.
    c.add("net_msgs", tb.net.messages() as f64);
    c.add("rpcnet.net_bytes", tb.net.bytes() as f64);
    c.add("rpcnet.wire_busy_ms", tb.net.busy_micros() as f64 / 1000.0);
    c.add(
        "rpcnet.batches",
        tb.transport_stats.batch_sizes.count() as f64,
    );
    c.add(
        "rpcnet.saved_round_trips",
        tb.transport_stats.saved.snapshot().total() as f64,
    );
    if tb.shard_hosts.is_empty() {
        if let Some(ep) = &tb.endpoint {
            c.add("rpcnet.dup_cache_hits", ep.dup_hits() as f64);
            c.add("rpcnet.dup_contention", ep.dup_contention() as f64);
        }
    } else {
        for sh in &tb.shard_hosts {
            c.add("rpcnet.dup_cache_hits", sh.endpoint.dup_hits() as f64);
            c.add("rpcnet.dup_contention", sh.endpoint.dup_contention() as f64);
        }
    }
    for ep in &tb.cb_endpoints {
        c.add("rpcnet.dup_cache_hits", ep.dup_hits() as f64);
    }

    // blockdev and localfs: every server disk and exported file system.
    for fs in server_fss(tb) {
        let disk = fs.disk();
        let d = disk.stats();
        c.add("server_disk_writes", d.writes as f64);
        c.add("blockdev.disk_reads", d.reads as f64);
        c.peak("blockdev.queue_peak", disk.queue_depth().peak() as f64);
        c.add("blockdev.wait_ms", disk.wait_ms().sum() as f64);
        c.add("blockdev.pos_ms", disk.pos_ms().sum() as f64);
        let (hits, misses) = fs.cache_stats();
        c.add("localfs.cache_hits", hits as f64);
        c.add("localfs.cache_misses", misses as f64);
    }

    // core: SNFS servers (state table, callbacks, delegations, shards).
    for srv in snfs_servers(tb) {
        let st = srv.stats();
        c.add("core.callbacks_sent", st.callbacks_sent as f64);
        c.add("core.callbacks_failed", st.callbacks_failed as f64);
        c.add("core.reclaim_passes", st.reclaim_passes as f64);
        c.add("core.state_entries", srv.table_len() as f64);
        let ds = srv.delegation_stats();
        c.add(
            "core.deleg_grants",
            (ds.grants_read + ds.grants_write) as f64,
        );
        c.add("core.deleg_recalls", ds.recalls as f64);
        c.add("core.deleg_revokes", ds.revokes as f64);
        let ops = srv.shard_stats();
        c.add("core.lock_contention", ops.lock_contention as f64);
        c.add("rpcnet.wrong_shard_replies", ops.wrong_shard_replies as f64);
        c.add("rpcnet.busy_rejections", ops.busy_rejections as f64);
        c.peak("core.callback_peak", srv.callback_gauge().peak() as f64);
    }

    // core: clients.
    for host in &tb.clients {
        match &host.remote {
            RemoteClient::None => {}
            RemoteClient::Nfs(cl) => {
                let (hits, misses) = cl.cache_stats();
                c.add("core.client_cache_hits", hits as f64);
                c.add("core.client_cache_misses", misses as f64);
                c.add("rpcnet.attr_elisions", cl.elided_probes() as f64);
            }
            RemoteClient::Snfs(cl) => {
                let (hits, misses) = cl.cache_stats();
                c.add("core.client_cache_hits", hits as f64);
                c.add("core.client_cache_misses", misses as f64);
                let st = cl.stats();
                c.add("rpcnet.attr_elisions", st.attr_piggybacks as f64);
                c.add("core.invalidations", st.invalidations as f64);
                c.add("core.written_back_blocks", st.written_back_blocks as f64);
                c.add("core.cancelled_blocks", st.cancelled_blocks as f64);
                c.add(
                    "core.deleg_local_opens",
                    cl.delegation_stats().local_opens as f64,
                );
            }
        }
    }
    c
}

/// The spans of a trace profile that lie wholly inside the sim-time
/// window `[from_us, to_us]`: the measured phase, without set-up.
pub fn spans_within(profile: &Profile, from_us: u64, to_us: u64) -> Vec<&OpProfile> {
    profile
        .ops
        .iter()
        .filter(|o| o.begin_us >= from_us && o.end_us <= to_us)
        .collect()
}

/// Microseconds the spans spent in `phase`.
fn phase_us(spans: &[&OpProfile], phase: Phase) -> u64 {
    let i = Phase::ALL
        .iter()
        .position(|&p| p == phase)
        .expect("Phase::ALL covers every phase");
    spans.iter().map(|o| o.phase_us[i]).sum()
}

/// Per-layer phase totals of the spans, in sim milliseconds, with the
/// total span time and its unattributed part (`trace.span_ms`,
/// `trace.unattributed_ms`) from which the attributed share follows.
pub fn phases(spans: &[&OpProfile]) -> Counters {
    let mut c = Counters::default();
    for (name, ph) in [
        ("rpcnet.net_ms", Phase::Net),
        ("rpcnet.client_queue_ms", Phase::ClientQueue),
        ("rpcnet.admission_ms", Phase::Admission),
        ("rpcnet.dup_cache_ms", Phase::DupCache),
        ("blockdev.disk_queue_ms", Phase::DiskQueue),
        ("blockdev.disk_service_ms", Phase::DiskService),
        ("core.server_cpu_ms", Phase::ServerCpu),
        ("core.callback_ms", Phase::Callback),
        ("core.cache_local_ms", Phase::CacheLocal),
        ("trace.unattributed_ms", Phase::Unattributed),
    ] {
        c.add(name, phase_us(spans, ph) as f64 / 1000.0);
    }
    let total: u64 = spans.iter().map(|o| o.total_us()).sum();
    c.add("trace.span_ms", total as f64 / 1000.0);
    c
}
