//! Testbed construction: one or more server shards (the paper's single
//! server is the one-shard layout), one or more diskful clients, a
//! shared Ethernet, and a protocol choice per experiment.

use std::cell::RefCell;
use std::rc::Rc;

use spritely_blockdev::{Disk, DiskSched};
use spritely_core::{
    DelegationParams, DelegationStats, SnfsClient, SnfsClientParams, SnfsServer, SnfsServerParams,
    WriteBehindParams, LEASE, RECALL_TIMEOUT,
};
use spritely_localfs::FsParams;
use spritely_localfs::LocalFs;
use spritely_metrics::{GaugeSeries, LatencyStats, OpCounter, RateSeries};
use spritely_nfs::{nfs_server, NfsClient, NfsClientParams};
use spritely_proto::{ClientId, FileHandle, Layout, NfsReply, NfsRequest, BLOCK_SIZE};
use spritely_rpcnet::{
    Caller, Endpoint, FaultParams, Network, ShardCaller, TransportParams, TransportStats,
};
use spritely_sim::{Resource, Sim, SimDuration};
use spritely_trace::Tracer;
use spritely_vfs::{FsBackend, Mount, Proc, Vfs};

use crate::config;

type NfsEndpoint = Endpoint<NfsRequest, NfsReply>;

/// Which file service the experiment runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Everything on the client's local disk (the paper's "local" column).
    Local,
    /// Baseline NFS with the vintage invalidate-on-close client.
    Nfs,
    /// NFS with the close bug fixed (ablation).
    NfsFixed,
    /// Spritely NFS.
    Snfs,
    /// Spritely NFS with the §6.2 delayed-close extension (ablation).
    SnfsDelayedClose,
}

impl Protocol {
    /// Display label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            Protocol::Local => "local",
            Protocol::Nfs => "NFS",
            Protocol::NfsFixed => "NFS(fixed)",
            Protocol::Snfs => "SNFS",
            Protocol::SnfsDelayedClose => "SNFS(dc)",
        }
    }

    /// True for the two SNFS variants.
    pub fn is_snfs(self) -> bool {
        matches!(self, Protocol::Snfs | Protocol::SnfsDelayedClose)
    }
}

/// Namespace sharding across independent server instances
/// (DESIGN.md §18): root-level names hash to one of `n` servers, each
/// with its own disk, file system, CPU, state table, and endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardParams {
    /// Number of server shards (at least 1). `n = 1` — the paper
    /// configuration — is the one-shard layout: one server whose names
    /// all route to it, built without any of the cross-shard machinery,
    /// so its runs stay byte-identical to the paper testbed's.
    pub n: usize,
}

impl ShardParams {
    /// The paper's single-server configuration.
    pub fn paper() -> Self {
        ShardParams { n: 1 }
    }

    /// An `n`-shard namespace.
    pub fn sharded(n: usize) -> Self {
        assert!(n >= 1, "need at least one shard");
        ShardParams { n }
    }
}

impl Default for ShardParams {
    fn default() -> Self {
        Self::paper()
    }
}

/// Server I/O pipeline configuration: how the server's disk arm is
/// scheduled, how large its block cache is, whether concurrent miss
/// reads coalesce, and how many RPCs may be admitted concurrently. A
/// closed choice of two presets.
///
/// [`ServerIoParams::paper`] (the default) reproduces the measured 1989
/// server byte-for-byte; [`ServerIoParams::pipelined`] turns all three
/// layers on. Server writes stay synchronous in both modes — the cache
/// is write-through and never delays durability, per the paper's NFS
/// server semantics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerIoParams {
    /// Disk-arm scheduling policy for the server disk.
    sched: DiskSched,
    /// Server buffer-cache capacity in blocks.
    cache_blocks: usize,
    /// Collapse concurrent cache misses on one block into a single disk
    /// read (followers wait for the leader's fetch).
    single_flight_reads: bool,
    /// RPC service threads. This is the admission width — that many RPCs
    /// overlap CPU with disk waits — and the N of the N−1 callback bound.
    service_threads: usize,
}

impl ServerIoParams {
    /// The paper-era server: FIFO arm, an ≈3.5 MB (paper §5.2) 896-block
    /// cache, one disk read per miss, 4 service threads. Keeps every
    /// `table_5_*` and `figure_5_*` artifact byte-identical.
    pub fn paper() -> Self {
        ServerIoParams {
            sched: DiskSched::Fifo,
            cache_blocks: 896,
            single_flight_reads: false,
            service_threads: 4,
        }
    }

    /// The pipelined server: C-LOOK arm scheduling (aging limit 4, so no
    /// request is bypassed more than 4 times; 2M-block full stroke), a
    /// 4096-block cache with single-flight misses, and 8 service threads
    /// overlapping CPU with disk waits.
    pub fn pipelined() -> Self {
        ServerIoParams {
            sched: DiskSched::CLook {
                max_bypass: 4,
                stroke_blocks: 1 << 21,
            },
            cache_blocks: 4096,
            single_flight_reads: true,
            service_threads: 8,
        }
    }
}

impl Default for ServerIoParams {
    fn default() -> Self {
        Self::paper()
    }
}

/// Testbed knobs beyond the protocol itself.
#[derive(Debug, Clone, Copy)]
pub struct TestbedParams {
    /// The file service under test.
    pub protocol: Protocol,
    /// Mount `/tmp` and `/usr/tmp` on the remote server instead of the
    /// client's local disk.
    pub tmp_remote: bool,
    /// Run the 30 s update daemons (client local FS, server FS, SNFS
    /// client). `false` = the paper's "infinite write-delay" (§5.4).
    pub update_enabled: bool,
    /// Override of the SNFS client write-delay (default 30 s).
    pub snfs_write_delay: SimDuration,
    /// Override of the NFS attribute-probe floor (default 3 s).
    pub nfs_attr_min: SimDuration,
    /// NFS client read-ahead.
    pub read_ahead: bool,
    /// SNFS client read-ahead window (1 = the paper's single
    /// speculative block).
    pub read_ahead_window: usize,
    /// SNFS client write-behind pool (gathering + pipelining). The
    /// default is paper-faithful: one block per RPC, one in flight.
    pub write_behind: WriteBehindParams,
    /// Name caching at the clients (§7 extension for SNFS, dnlc-style TTL
    /// cache for NFS).
    pub name_cache: bool,
    /// SNFS server state-table limit and reclaim target.
    pub snfs_server: SnfsServerParams,
    /// Server I/O pipeline: disk-arm scheduling, server block cache,
    /// single-flight misses, and RPC admission width. The default
    /// ([`ServerIoParams::paper`]) reproduces the measured 1989 server
    /// byte-for-byte; [`ServerIoParams::pipelined`] turns the pipeline on.
    pub server_io: ServerIoParams,
    /// Client data-cache capacity in blocks (shrink to force dirty-block
    /// evictions in tests).
    pub client_cache_blocks: usize,
    /// Transport pipeline: compound-RPC batching, piggybacked post-op
    /// attributes, switched network, retransmission backoff. The default
    /// ([`TransportParams::paper`]) reproduces the paper's transport
    /// byte-for-byte; [`TransportParams::pipelined`] turns it all on.
    /// Applies to client callers only — callback RPCs always use the
    /// paper transport.
    pub transport: TransportParams,
    /// Record a structured event trace of the run (client ops, RPCs,
    /// handlers, state-table transitions, callbacks, flushes). Tracing
    /// never awaits or consumes randomness, so a traced run produces the
    /// same tables as an untraced one.
    pub trace: bool,
    /// Network fault injection (drop/duplicate/delay/reply-loss). The
    /// default is provably inert: no fault state is installed, no
    /// randomness is drawn, and the run is byte-identical to one built
    /// before the fault layer existed. Scripted partitions can still be
    /// added at runtime via [`Network::partition`].
    pub faults: FaultParams,
    /// Open delegations (DESIGN.md §17): RPC-free open/close fast path
    /// with recall-on-conflict. Applied to both the SNFS server and its
    /// clients. The default ([`DelegationParams::paper`]) is provably
    /// inert — no grants, no new RPCs, byte-identical artifacts. Enabled,
    /// it requires `faults.max_delay` below `RECALL_TIMEOUT − LEASE`
    /// (DESIGN.md §17.3).
    pub delegation: DelegationParams,
    /// Namespace sharding (DESIGN.md §18). The default
    /// ([`ShardParams::paper`]) is the one-shard layout: the paper's
    /// single server, byte-identical. More than one shard requires an
    /// SNFS protocol and no name cache.
    pub shards: ShardParams,
}

impl Default for TestbedParams {
    fn default() -> Self {
        TestbedParams {
            protocol: Protocol::Snfs,
            tmp_remote: false,
            update_enabled: true,
            snfs_write_delay: SimDuration::ZERO,
            nfs_attr_min: SimDuration::from_secs(3),
            read_ahead: true,
            read_ahead_window: 1,
            write_behind: WriteBehindParams::default(),
            name_cache: false,
            snfs_server: SnfsServerParams::default(),
            server_io: ServerIoParams::paper(),
            client_cache_blocks: config::CLIENT_CACHE_BLOCKS,
            transport: TransportParams::paper(),
            trace: false,
            faults: FaultParams::default(),
            delegation: DelegationParams::paper(),
            shards: ShardParams::paper(),
        }
    }
}

/// The protocol client attached to one client host.
#[derive(Clone)]
pub enum RemoteClient {
    /// Local protocol: no remote client at all.
    None,
    /// Baseline NFS client.
    Nfs(NfsClient),
    /// SNFS client.
    Snfs(SnfsClient),
}

/// One client host: CPU, local disk FS, its remote-protocol client, and
/// a process factory.
pub struct ClientHost {
    /// Host CPU.
    pub cpu: Resource,
    /// Local-disk file system.
    pub local_fs: LocalFs,
    /// Protocol client (if any).
    pub remote: RemoteClient,
    /// Mount table for processes on this host.
    pub vfs: Vfs,
}

impl ClientHost {
    /// Spawns a process on this host.
    pub fn proc(&self, sim: &Sim) -> Proc {
        Proc::new(
            sim,
            self.vfs.clone(),
            self.cpu.clone(),
            config::syscall_costs(),
        )
    }
}

/// One SNFS server's stack: its own CPU, disk file system, SNFS server,
/// endpoint, and RPC counter. All handles are cheap clones of
/// reference-counted state; shard 0's are the same objects as the
/// `Testbed`'s dedicated single-server fields.
#[derive(Clone)]
pub struct ShardHost {
    /// Shard index (0-based; this shard exports `fsid = shard + 1`).
    pub shard: u32,
    /// Shard host CPU.
    pub cpu: Resource,
    /// Shard's exported file system.
    pub fs: LocalFs,
    /// Shard's SNFS server.
    pub server: SnfsServer,
    /// Shard's RPC endpoint.
    pub endpoint: Endpoint<NfsRequest, NfsReply>,
    /// Per-procedure counter on this shard's endpoint.
    pub counter: OpCounter,
}

/// A complete experiment topology.
pub struct Testbed {
    /// The simulation.
    pub sim: Sim,
    /// Parameters it was built with.
    pub params: TestbedParams,
    /// Server host CPU.
    pub server_cpu: Resource,
    /// The server's exported file system.
    pub server_fs: LocalFs,
    /// The SNFS server object (present for SNFS protocols).
    pub snfs_server: Option<SnfsServer>,
    /// Per-procedure counter on the server endpoint.
    pub counter: OpCounter,
    /// Call-rate series feeding the figures.
    pub rates: RateSeries,
    /// End-to-end RPC latency per procedure, across all clients.
    pub latency: LatencyStats,
    /// Server CPU utilization samples (filled by
    /// [`spawn_utilization_sampler`](Self::spawn_utilization_sampler)).
    pub util: GaugeSeries,
    /// The shared network.
    pub net: Network,
    /// Aggregated transport observability across every client caller
    /// (batch sizes, saved round trips). Empty on the paper transport.
    pub transport_stats: TransportStats,
    /// The run's event tracer (present when [`TestbedParams::trace`]).
    pub tracer: Option<Tracer>,
    /// The NFS/SNFS endpoint (absent for `Protocol::Local`).
    pub endpoint: Option<Endpoint<NfsRequest, NfsReply>>,
    /// The per-client callback-service endpoints (SNFS only): the
    /// server's callbacks — write-back, invalidate, delegation recall —
    /// land here, so their duplicate-request caches are where a
    /// retransmitted callback is replayed from.
    pub cb_endpoints: Vec<Endpoint<spritely_proto::CallbackArg, spritely_proto::CallbackReply>>,
    /// Client hosts (at least one).
    pub clients: Vec<ClientHost>,
    /// Well-known directories on the server: (src, target, tmp).
    pub server_dirs: (FileHandle, FileHandle, FileHandle),
    /// Per-shard SNFS server stacks, one per shard (exactly one in the
    /// paper configuration); empty for the NFS and local protocols.
    /// Entry 0 aliases the dedicated single-server fields above.
    pub shard_hosts: Vec<ShardHost>,
    /// The authoritative layout map shared by the shard servers
    /// (sharded runs only).
    pub layout: Option<Rc<RefCell<Layout>>>,
}

impl Testbed {
    /// Builds a testbed with one client host.
    pub fn build(params: TestbedParams) -> Self {
        Self::build_with_clients(params, 1)
    }

    /// Builds a testbed with `n_clients` client hosts and
    /// `params.shards.n` server hosts. The paper's single server is the
    /// one-shard layout; it leaves out only what several shards need —
    /// the servers' layout view, inter-shard callers, the `shards` trace
    /// meta, and shard-numbered host names.
    pub fn build_with_clients(params: TestbedParams, n_clients: usize) -> Self {
        assert!(n_clients >= 1, "need at least one client");
        let n_shards = params.shards.n;
        assert!(n_shards >= 1, "need at least one shard");
        let sharded = n_shards > 1;
        if sharded {
            assert!(
                params.protocol.is_snfs(),
                "a sharded namespace requires an SNFS protocol (got {:?})",
                params.protocol
            );
            assert!(
                !params.name_cache,
                "name caching is not supported over a sharded namespace: \
                 a cached root binding would bypass the layout map"
            );
        }
        // Revoke ⇒ the holder's lease lapsed only while no message is
        // delayed past the gap between the two (DESIGN.md §17.3).
        assert!(
            !params.delegation.enabled || params.faults.max_delay < RECALL_TIMEOUT - LEASE,
            "delegations need faults.max_delay ({}) below recall timeout − lease ({})",
            params.faults.max_delay,
            RECALL_TIMEOUT - LEASE
        );
        let host = |s: usize, what: &str| {
            if sharded {
                format!("server{s}-{what}")
            } else {
                format!("server-{what}")
            }
        };
        let sim = Sim::new();
        let layout = Rc::new(RefCell::new(Layout::new(n_shards as u32)));
        // ---- server hosts ------------------------------------------------
        let mut server_fs: Vec<LocalFs> = Vec::new();
        let mut server_cpu: Vec<Resource> = Vec::new();
        let mut counters: Vec<OpCounter> = Vec::new();
        for s in 0..n_shards {
            let disk = Disk::with_sched(
                &sim,
                host(s, "disk"),
                config::disk_params(),
                params.server_io.sched,
            );
            let fsp = FsParams {
                single_flight_reads: params.server_io.single_flight_reads,
                ..config::fs_params(params.server_io.cache_blocks, params.update_enabled)
            };
            // Shard s exports fsid s + 1; handle-addressed requests
            // route on nothing else.
            let fs = LocalFs::new(&sim, s as u32 + 1, disk, fsp);
            fs.spawn_update_daemon();
            server_fs.push(fs);
            server_cpu.push(Resource::new(&sim, host(s, "cpu"), 1));
            counters.push(OpCounter::new());
        }
        let rates = RateSeries::new(config::figure_bucket());
        let util = GaugeSeries::new();
        let latency = LatencyStats::new();
        let netp = if params.transport.switched {
            config::net_params().switched_full_duplex()
        } else {
            config::net_params()
        };
        let net = Network::new(&sim, "ether", netp);
        if params.faults.any() {
            net.set_faults(params.faults);
        }
        let transport_stats = TransportStats::new();
        let tracer = params.trace.then(|| {
            let t = Tracer::new(&sim);
            t.meta("protocol", params.protocol.label());
            t.meta("clients", n_clients.to_string());
            t.meta("disk_sched", params.server_io.sched.meta_value());
            if sharded {
                t.meta("shards", n_shards.to_string());
            }
            for fs in &server_fs {
                fs.disk().set_tracer(t.clone());
                fs.set_tracer(t.clone());
            }
            net.set_tracer(t.clone());
            t
        });
        // Well-known directories, each created on the shard that owns
        // its name under the initial layout.
        let roots: Vec<FileHandle> = server_fs.iter().map(|f| f.root()).collect();
        let (src_dir, target_dir, tmp_dir) = {
            let place = |name: &'static str| {
                let s = layout.borrow().owner(name) as usize;
                (server_fs[s].clone(), roots[s], name)
            };
            let dirs = [place("src"), place("target"), place("tmp")];
            sim.block_on(async move {
                let mut fhs = Vec::new();
                for (fs, root, name) in dirs {
                    let (fh, _) = fs.mkdir(root, name).await.expect("mkdir well-known dir");
                    fhs.push(fh);
                }
                (fhs[0], fhs[1], fhs[2])
            })
        };
        // ---- protocol servers + endpoints ----------------------------------
        // The admission width (endpoint threads) comes from the server I/O
        // params: that many RPCs may overlap CPU with disk waits.
        let ep_params = config::endpoint_params(params.server_io.service_threads);
        let mut endpoints: Vec<NfsEndpoint> = Vec::new();
        let mut shard_hosts: Vec<ShardHost> = Vec::new();
        for s in 0..n_shards {
            let (fs, cpu, counter) = (&server_fs[s], &server_cpu[s], &counters[s]);
            let ep = match params.protocol {
                // The local protocol serves no RPCs.
                Protocol::Local => break,
                Protocol::Nfs | Protocol::NfsFixed => nfs_server(
                    &sim,
                    "nfsd",
                    fs.clone(),
                    cpu.clone(),
                    ep_params,
                    counter.clone(),
                ),
                Protocol::Snfs | Protocol::SnfsDelayedClose => {
                    let srv = SnfsServer::new(
                        &sim,
                        fs.clone(),
                        params.server_io.service_threads,
                        params.delegation,
                        params.snfs_server,
                    );
                    if let Some(t) = &tracer {
                        srv.set_tracer(t.clone());
                    }
                    let name = if sharded {
                        srv.set_shard(s as u32, roots[s], Rc::clone(&layout));
                        format!("snfsd{s}")
                    } else {
                        "snfsd".to_string()
                    };
                    let ep = srv.endpoint(name, cpu.clone(), ep_params, counter.clone());
                    shard_hosts.push(ShardHost {
                        shard: s as u32,
                        cpu: cpu.clone(),
                        fs: fs.clone(),
                        server: srv,
                        endpoint: ep.clone(),
                        counter: counter.clone(),
                    });
                    ep
                }
            };
            ep.set_rate_series(rates.clone());
            if let Some(t) = &tracer {
                ep.set_tracer(t.clone());
            }
            endpoints.push(ep);
        }
        // ---- inter-shard coordination callers -----------------------------
        // Coordinator shard s reaches peer p through a dedicated caller
        // carrying ClientId(10_000 + s); all of s's peer callers share
        // one xid space. Their fault link is host 200 + s, so a chaos
        // script can sever one shard's coordination traffic without
        // touching any client's.
        for (s, sh) in shard_hosts.iter().enumerate() {
            let mut first: Option<Caller<NfsRequest, NfsReply>> = None;
            for (p, peer) in shard_hosts.iter().enumerate() {
                if p == s {
                    continue;
                }
                let mut c = Caller::new(
                    &sim,
                    net.clone(),
                    peer.endpoint.clone(),
                    ClientId(10_000 + s as u32),
                    sh.cpu.clone(),
                    config::caller_params(),
                );
                c.set_fault_link(200 + s as u32, false);
                if let Some(t) = &tracer {
                    c.set_tracer(t.clone());
                }
                match &first {
                    Some(f) => c.share_xids_with(f),
                    None => first = Some(c.clone()),
                }
                sh.server.register_peer(p as u32, c);
            }
        }
        // One caller per server, all sharing the client's xid space so
        // retransmit detection and the per-shard duplicate caches see
        // one coherent (client, xid) stream. Over a single server the
        // ShardCaller is a pure pass-through.
        let client_caller = |cid: ClientId, cpu: &Resource| {
            let mut callers: Vec<Caller<NfsRequest, NfsReply>> = Vec::new();
            for ep in &endpoints {
                let mut c = Caller::new(
                    &sim,
                    net.clone(),
                    ep.clone(),
                    cid,
                    cpu.clone(),
                    config::caller_params(),
                );
                c.set_transport(params.transport);
                c.set_transport_stats(transport_stats.clone());
                c.set_latency_stats(latency.clone());
                if let Some(t) = &tracer {
                    c.set_tracer(t.clone());
                }
                if let Some(f) = callers.first() {
                    c.share_xids_with(f);
                }
                callers.push(c);
            }
            ShardCaller::sharded(&sim, callers, roots.clone(), params.protocol.is_snfs())
        };
        // ---- clients -------------------------------------------------------
        let mut clients = Vec::new();
        let mut cb_endpoints = Vec::new();
        for i in 0..n_clients {
            let cid = ClientId(i as u32 + 1);
            let cpu = Resource::new(&sim, format!("client{}-cpu", cid.0), 1);
            let disk = Disk::new(&sim, format!("client{}-disk", cid.0), config::disk_params());
            let local_fs = LocalFs::new(
                &sim,
                100 + cid.0,
                disk,
                config::fs_params(config::CLIENT_CACHE_BLOCKS, params.update_enabled),
            );
            local_fs.spawn_update_daemon();
            // Local tmp directory.
            let lroot = local_fs.root();
            let ltmp = {
                let fs = local_fs.clone();
                sim.block_on(async move {
                    let (t, _) = fs.mkdir(lroot, "tmp").await.expect("mkdir local tmp");
                    t
                })
            };
            let remote = match params.protocol {
                Protocol::Local => RemoteClient::None,
                Protocol::Nfs | Protocol::NfsFixed => RemoteClient::Nfs(NfsClient::new(
                    &sim,
                    client_caller(cid, &cpu),
                    NfsClientParams {
                        attr_min: params.nfs_attr_min,
                        invalidate_on_close: params.protocol == Protocol::Nfs,
                        read_ahead: params.read_ahead,
                        cache_blocks: params.client_cache_blocks,
                        name_cache: params.name_cache,
                    },
                )),
                Protocol::Snfs | Protocol::SnfsDelayedClose => {
                    let client = SnfsClient::new(
                        &sim,
                        client_caller(cid, &cpu),
                        SnfsClientParams {
                            cache_blocks: params.client_cache_blocks,
                            write_delay: params.snfs_write_delay,
                            update_interval: params
                                .update_enabled
                                .then(|| SimDuration::from_secs(30)),
                            read_ahead: params.read_ahead,
                            read_ahead_window: params.read_ahead_window,
                            write_behind: params.write_behind,
                            delayed_close: params.protocol == Protocol::SnfsDelayedClose,
                            name_cache: params.name_cache,
                            delegation: params.delegation,
                        },
                    );
                    if let Some(t) = &tracer {
                        client.set_tracer(t.clone());
                    }
                    client.spawn_update_daemon();
                    client.spawn_keepalive_daemon(SimDuration::from_secs(10));
                    // One callback endpoint per client, registered with
                    // every server. The per-server callback callers share
                    // one xid space per client — two shards must never
                    // reuse an xid against the same client's
                    // duplicate-request cache.
                    let cb_ep = client.callback_endpoint(
                        format!("cbsrv{}", cid.0),
                        cpu.clone(),
                        config::callback_endpoint_params(),
                        counters[0].clone(),
                    );
                    if let Some(t) = &tracer {
                        cb_ep.set_tracer(t.clone());
                    }
                    cb_endpoints.push(cb_ep.clone());
                    let mut first_cb: Option<
                        Caller<spritely_proto::CallbackArg, spritely_proto::CallbackReply>,
                    > = None;
                    for sh in &shard_hosts {
                        let mut cb_caller = Caller::new(
                            &sim,
                            net.clone(),
                            cb_ep.clone(),
                            ClientId(0),
                            sh.cpu.clone(),
                            config::caller_params(),
                        );
                        // Callback callers carry ClientId(0) (they
                        // originate at the server); their fault link is
                        // the *client* host in the server→client
                        // direction, so a partition of the client host
                        // severs both its request and callback legs.
                        cb_caller.set_fault_link(cid.0, true);
                        if let Some(t) = &tracer {
                            cb_caller.set_tracer(t.clone());
                        }
                        match &first_cb {
                            Some(f) => cb_caller.share_xids_with(f),
                            None => first_cb = Some(cb_caller.clone()),
                        }
                        sh.server.register_client(cid, cb_caller);
                    }
                    RemoteClient::Snfs(client)
                }
            };
            // ---- mounts ----
            let backend = match &remote {
                RemoteClient::None => None,
                RemoteClient::Nfs(c) => Some(FsBackend::Nfs(c.clone())),
                RemoteClient::Snfs(c) => Some(FsBackend::Snfs(c.clone())),
            };
            let local = FsBackend::Local(local_fs.clone());
            // Local protocol: "/remote" is just the local disk too.
            let (remote_fs, remote_root) = backend
                .clone()
                .map_or((local.clone(), lroot), |b| (b, roots[0]));
            let (tmp_fs, tmp_root) = match backend {
                Some(b) if params.tmp_remote => (b, tmp_dir),
                _ => (local.clone(), ltmp),
            };
            let vfs = Vfs::new(vec![
                Mount::new("/", local, lroot),
                Mount::new("/remote", remote_fs, remote_root),
                Mount::new("/usr/tmp", tmp_fs, tmp_root),
            ]);
            clients.push(ClientHost {
                cpu,
                local_fs,
                remote,
                vfs,
            });
        }
        Testbed {
            sim,
            params,
            server_cpu: server_cpu[0].clone(),
            server_fs: server_fs[0].clone(),
            snfs_server: shard_hosts.first().map(|sh| sh.server.clone()),
            counter: counters[0].clone(),
            rates,
            latency,
            util,
            net,
            transport_stats,
            tracer,
            endpoint: endpoints.first().cloned(),
            cb_endpoints,
            clients,
            server_dirs: (src_dir, target_dir, tmp_dir),
            shard_hosts,
            layout: sharded.then_some(layout),
        }
    }

    /// A process on the first client host.
    pub fn proc(&self) -> Proc {
        self.clients[0].proc(&self.sim)
    }

    /// Cold-boots every remote client in turn (empties its cache), so
    /// the measured phase that follows starts cold.
    pub fn cold_boot_clients(&self) {
        for host in &self.clients {
            let h = match host.remote.clone() {
                RemoteClient::None => continue,
                RemoteClient::Nfs(c) => self.sim.spawn(async move {
                    c.cold_boot().await.expect("cold boot");
                }),
                RemoteClient::Snfs(c) => self.sim.spawn(async move {
                    c.cold_boot().await.expect("cold boot");
                }),
            };
            self.sim.run_until(h);
        }
    }

    /// Finishes the trace (if tracing was on) and runs the invariant
    /// checker over it. Runners call this at the end of a run.
    pub fn finish_trace(&self) -> Option<crate::snapshot::TraceReport> {
        self.tracer
            .as_ref()
            .map(|t| crate::snapshot::TraceReport::from_events(t.finish()))
    }

    /// Unified statistics snapshot of every host (serializable; see
    /// [`crate::snapshot::StatsSnapshot`]).
    pub fn stats_snapshot(&self) -> crate::snapshot::StatsSnapshot {
        let clients = self
            .clients
            .iter()
            .enumerate()
            .filter_map(|(i, host)| {
                let id = i as u32 + 1;
                match &host.remote {
                    RemoteClient::None => None,
                    RemoteClient::Nfs(c) => {
                        let (hits, misses) = c.cache_stats();
                        Some(crate::snapshot::ClientSnapshot {
                            id,
                            cache_hits: hits,
                            cache_misses: misses,
                            dirty_blocks: 0,
                            snfs: None,
                        })
                    }
                    RemoteClient::Snfs(c) => {
                        let (hits, misses) = c.cache_stats();
                        Some(crate::snapshot::ClientSnapshot {
                            id,
                            cache_hits: hits,
                            cache_misses: misses,
                            dirty_blocks: c.dirty_blocks() as u64,
                            snfs: Some(c.stats()),
                        })
                    }
                }
            })
            .collect();
        // Every server host's counters, summed (peaks: the worst one).
        let servers = self.servers();
        let mut server_io = crate::snapshot::ServerIoSnapshot::default();
        for (fs, _, _) in &servers {
            let disk = fs.disk();
            let d = disk.stats();
            let (hits, misses) = fs.cache_stats();
            let io = &mut server_io;
            io.cache_hits += hits;
            io.cache_misses += misses;
            io.disk_reads += d.reads;
            io.disk_writes += d.writes;
            io.disk_queue_peak = io.disk_queue_peak.max(disk.queue_depth().peak());
            io.disk_requests += disk.wait_ms().count();
            io.disk_wait_ms_sum += disk.wait_ms().sum();
            io.disk_wait_ms_max = io.disk_wait_ms_max.max(disk.wait_ms().max());
            io.disk_pos_ms_sum += disk.pos_ms().sum();
        }
        let attr_elisions: u64 = self
            .clients
            .iter()
            .map(|host| match &host.remote {
                RemoteClient::None => 0,
                RemoteClient::Nfs(c) => c.elided_probes(),
                RemoteClient::Snfs(c) => c.stats().attr_piggybacks,
            })
            .sum();
        let ts = &self.transport_stats;
        crate::snapshot::StatsSnapshot {
            protocol: self.params.protocol.label().to_string(),
            rpc_total: servers.iter().map(|(_, c, _)| c.snapshot().total()).sum(),
            clients,
            server: (!self.shard_hosts.is_empty()).then(|| {
                let mut srv = crate::snapshot::ServerSnapshot {
                    stats: Default::default(),
                    callback_peak: 0,
                    table_entries: 0,
                };
                for sh in &self.shard_hosts {
                    srv.stats += sh.server.stats();
                    srv.callback_peak = srv.callback_peak.max(sh.server.callback_gauge().peak());
                    srv.table_entries += sh.server.table_len() as u64;
                }
                srv
            }),
            server_io,
            transport: crate::snapshot::TransportSnapshot {
                net_messages: self.net.messages(),
                net_bytes: self.net.bytes(),
                wire_busy_ms: (self.net.busy_micros() / 1000) as u64,
                batches: ts.batch_sizes.count(),
                batched_calls: ts.batch_sizes.sum(),
                max_batch: ts.batch_sizes.max(),
                saved_round_trips: ts.saved.snapshot().total(),
                attr_elisions,
                saved_per_proc: ts.saved.snapshot(),
            },
            sim: self.sim.stats().into(),
            faults: self.net.faults_active().then(|| {
                let fs = self.net.fault_stats();
                // Retransmits replay from the servers' duplicate-request
                // caches, and retransmitted callbacks (write-back,
                // invalidate, recall) from the *clients'*; count both.
                let (mut dup_cache_hits, mut dup_cache_joins) = (0, 0);
                for ep in servers.iter().filter_map(|(_, _, ep)| *ep) {
                    dup_cache_hits += ep.dup_hits();
                    dup_cache_joins += ep.dup_joins();
                }
                for ep in &self.cb_endpoints {
                    dup_cache_hits += ep.dup_hits();
                    dup_cache_joins += ep.dup_joins();
                }
                crate::snapshot::FaultSnapshot {
                    drops: fs.drops(),
                    dups: fs.dups(),
                    delays: fs.delays(),
                    reply_losses: fs.reply_losses(),
                    partition_drops: fs.partition_drops(),
                    killed_attempts: fs.killed_attempts(),
                    retransmit_absorbed: fs.retransmit_absorbed(),
                    outstanding_kills: fs.outstanding_kills(),
                    dup_cache_hits,
                    dup_cache_joins,
                    callback_retries: self
                        .shard_hosts
                        .iter()
                        .map(|sh| sh.server.callback_retries())
                        .sum(),
                    callback_dupes: self
                        .clients
                        .iter()
                        .map(|host| match &host.remote {
                            RemoteClient::Snfs(c) => c.callback_dupes(),
                            _ => 0,
                        })
                        .sum(),
                }
            }),
            profile: self
                .tracer
                .as_ref()
                .map(|t| (&spritely_trace::profile_trace(&t.finish())).into()),
            delegation: self.params.delegation.enabled.then(|| {
                // The servers carry grants/recalls/returns/revokes and
                // the latency histogram; the clients contribute the local
                // fast-path counters. Merge into one DelegationStats.
                let mut stats = DelegationStats::default();
                for sh in &self.shard_hosts {
                    stats += sh.server.delegation_stats();
                }
                let mut held = 0u64;
                for host in &self.clients {
                    if let RemoteClient::Snfs(c) = &host.remote {
                        stats += c.delegation_stats();
                        held += c.delegations_held() as u64;
                    }
                }
                crate::snapshot::DelegationSnapshot { stats, held }
            }),
            shards: (self.params.shards.n > 1).then(|| crate::snapshot::ShardsSnapshot {
                n: self.shard_hosts.len() as u64,
                peak_client_kb: self.peak_client_kb(),
                shards: self
                    .shard_hosts
                    .iter()
                    .map(|sh| {
                        let ops = sh.server.shard_stats();
                        crate::snapshot::ShardSnapshot {
                            shard: sh.shard,
                            rpcs: sh.counter.snapshot().total(),
                            dup_hits: sh.endpoint.dup_hits(),
                            table_entries: sh.server.table_len() as u64,
                            cross_renames: ops.cross_renames,
                            cross_links: ops.cross_links,
                            wrong_shard_replies: ops.wrong_shard_replies,
                            busy_rejections: ops.busy_rejections,
                            lock_contention: ops.lock_contention,
                            dup_contention: sh.endpoint.dup_contention(),
                        }
                    })
                    .collect(),
            }),
        }
    }

    /// Every server host's exported file system, RPC counter and
    /// endpoint: one per shard under SNFS, otherwise the lone NFS server
    /// (or the idle server of the local protocol, which has no endpoint).
    fn servers(&self) -> Vec<(&LocalFs, &OpCounter, Option<&NfsEndpoint>)> {
        if self.shard_hosts.is_empty() {
            vec![(&self.server_fs, &self.counter, self.endpoint.as_ref())]
        } else {
            self.shard_hosts
                .iter()
                .map(|sh| (&sh.fs, &sh.counter, Some(&sh.endpoint)))
                .collect()
        }
    }

    /// Largest per-client peak data-cache footprint, in KiB (SNFS
    /// clients; 0 for the other protocols).
    pub(crate) fn peak_client_kb(&self) -> u64 {
        let peak_blocks = self
            .clients
            .iter()
            .map(|host| match &host.remote {
                RemoteClient::Snfs(c) => c.peak_cache_blocks(),
                _ => 0,
            })
            .max()
            .unwrap_or(0);
        (peak_blocks * BLOCK_SIZE) as u64 / 1024
    }

    /// Spawns a sampler recording server CPU utilization once per figure
    /// bucket.
    pub fn spawn_utilization_sampler(&self) {
        let sim = self.sim.clone();
        let cpu = self.server_cpu.clone();
        let util = self.util.clone();
        let bucket = config::figure_bucket();
        self.sim.spawn(async move {
            let mut last_busy = cpu.busy_permit_micros();
            loop {
                let start = sim.now();
                sim.sleep(bucket).await;
                let busy = cpu.busy_permit_micros();
                let frac =
                    (busy - last_busy) as f64 / (bucket.as_micros() as f64 * cpu.capacity() as f64);
                util.push(sim.now(), frac);
                last_busy = busy;
                let _ = start;
            }
        });
    }
}

/// Dropping a testbed frees its whole simulation. Every daemon task
/// holds a `Sim` clone and the simulation holds every task, so without
/// [`Sim::shutdown`] neither would ever be freed.
impl Drop for Testbed {
    fn drop(&mut self) {
        self.sim.shutdown();
    }
}
