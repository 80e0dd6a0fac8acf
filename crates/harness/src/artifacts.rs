//! The artifact catalogue: the one place that knows, for every paper
//! artifact, its run set, its title, its file stem and its
//! `BENCH_*.json` ledger rows.
//!
//! Artifacts are rendered per run family, so runs that several
//! artifacts share happen once. The `spritely` CLI prints them, the
//! bench targets write them to `artifacts/` and the ledgers, and
//! `tests/paper_baselines.rs` compares each against
//! `baselines/<name>.txt`.
//!
//! | Family | Artifacts |
//! |---|---|
//! | [`andrew`] | Tables 5-1/5-2, Figures 5-1/5-2, NFS RPC latency, traced-Andrew trace summary and latency profile |
//! | [`sort`] | Tables 5-3 to 5-6 |
//! | [`micro`] | §5.3 write-close-reopen-read (1 MB) |
//! | [`temp_lifetime`] | temp-file lifetime sweep |
//! | [`scaling`] | §2.3 multi-client capacity |
//! | [`server_scaling`] | paper vs pipelined server I/O at 4 and 8 clients |
//! | [`flush_latency`] | serial vs gathered+pipelined flush |
//! | [`rpc_transport`] | paper vs pipelined transport |
//! | [`close_bug`], [`delayed_close`], [`write_delay`], [`name_cache`], [`probe_interval`] | the ablations |

use spritely_metrics::TextTable;
use spritely_proto::NfsProc;
use spritely_sim::SimDuration;
use spritely_trace::profile_trace;

use crate::andrew::{run_andrew, run_andrew_traced, run_andrew_with, AndrewRun};
use crate::flushx::{run_flush_latency, FlushLatency};
use crate::microx::{run_reopen, run_temp_lifetime};
use crate::report;
use crate::scaling::{run_scaling, run_scaling_with, ScalingRun};
use crate::sortx::{run_sort_experiment, run_sort_with, SortRun};
use crate::testbed::{Protocol, ServerIoParams, TestbedParams};
use crate::transportx::{run_transport_comparison, TransportComparison};

/// Ledger rows: `(key, raw JSON value)` pairs.
pub type LedgerRows = Vec<(String, String)>;

/// One rendered artifact.
pub struct Artifact {
    /// File stem: `artifacts/<name>.txt` and `baselines/<name>.txt`.
    pub name: &'static str,
    /// The title line.
    pub title: String,
    /// The table or series.
    pub body: String,
    /// The `BENCH_<ledger>.json` name and rows, if the artifact has a ledger.
    pub ledger: Option<(&'static str, LedgerRows)>,
}

impl Artifact {
    fn new(name: &'static str, title: impl Into<String>, body: String) -> Self {
        Artifact {
            name,
            title: title.into(),
            body,
            ledger: None,
        }
    }

    fn ledger(mut self, name: &'static str, rows: LedgerRows) -> Self {
        self.ledger = Some((name, rows));
        self
    }

    /// `"{title}\n{body}\n"`: what the CLI prints and what the
    /// artifact and baseline files hold.
    pub fn rendered(&self) -> String {
        format!("{}\n{}\n", self.title, self.body)
    }
}

/// A run family: its runs, and every artifact rendered from them.
pub struct Family<R> {
    /// The runs, for consumers that check more than the rendering.
    pub runs: R,
    /// The rendered artifacts.
    pub artifacts: Vec<Artifact>,
    /// Raw JSON snapshots stored beside the artifacts, as `(file, json)`.
    pub snapshots: Vec<(&'static str, String)>,
}

fn single(artifact: Artifact) -> Family<()> {
    Family {
        runs: (),
        artifacts: vec![artifact],
        snapshots: Vec::new(),
    }
}

/// Filename slug: the part of the title before any ':', lowercased,
/// runs of non-alphanumerics collapsed to single '_'. Also the
/// convention for ledger keys built from run labels.
pub fn slug_of(title: &str) -> String {
    let head = title.split(':').next().unwrap_or(title);
    let mut out = String::new();
    for c in head.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('_') {
            out.push('_');
        }
    }
    out.trim_matches('_').to_string()
}

fn secs1(d: SimDuration) -> String {
    format!("{:.1}", d.as_secs_f64())
}

/// The Andrew runs: the five configurations of Table 5-1, plus the
/// traced SNFS run behind the trace summary and latency profile.
pub struct AndrewRuns {
    /// local, NFS tmp-loc, NFS tmp-rem, SNFS tmp-loc, SNFS tmp-rem.
    pub configs: Vec<AndrewRun>,
    /// SNFS with `/tmp` remote, traced and checked.
    pub traced: AndrewRun,
}

/// Tables 5-1/5-2 and Figures 5-1/5-2 from the five Andrew runs (the
/// figures are the two `/tmp`-remote runs, as in the paper), the NFS
/// RPC-latency table, and the traced run's summary and profile.
pub fn andrew(seed: u64) -> Family<AndrewRuns> {
    let configs = vec![
        run_andrew(Protocol::Local, false, seed),
        run_andrew(Protocol::Nfs, false, seed),
        run_andrew(Protocol::Nfs, true, seed),
        run_andrew(Protocol::Snfs, false, seed),
        run_andrew(Protocol::Snfs, true, seed),
    ];
    let traced = run_andrew_traced(seed);
    let trace = traced.trace.as_ref().expect("tracing was on");
    let profile = profile_trace(&trace.events);

    let total_s = configs
        .iter()
        .map(|r| {
            (
                format!("{}_total_s", slug_of(&r.label())),
                secs1(r.times.total()),
            )
        })
        .collect();
    // Table 5-2 has no local column.
    let remote = &configs[1..];
    let mut rpcs: LedgerRows = remote
        .iter()
        .map(|r| {
            (
                format!("{}_rpcs", slug_of(&r.label())),
                r.ops_with_tail.total().to_string(),
            )
        })
        .collect();
    rpcs.push(("profile_spans".into(), profile.ops.len().to_string()));
    rpcs.push(("profile_rpcs".into(), profile.total_rpcs.to_string()));
    rpcs.push((
        "profile_attributed_pct".into(),
        format!("{:.3}", profile.attributed_fraction() * 100.0),
    ));
    let artifacts = vec![
        Artifact::new(
            "table_5_1",
            "Table 5-1: Andrew benchmark elapsed time (seconds)",
            report::table_5_1(&configs),
        )
        .ledger("table_5_1", total_s),
        Artifact::new(
            "table_5_2",
            "Table 5-2: RPC calls for the Andrew benchmark (steady state)",
            report::table_5_2(remote),
        )
        .ledger("table_5_2", rpcs),
        figure(
            "figure_5_1",
            "Figure 5-1: server utilization and call rates for NFS (CSV)",
            &configs[2],
        ),
        figure(
            "figure_5_2",
            "Figure 5-2: server utilization and call rates for SNFS (CSV)",
            &configs[4],
        ),
        Artifact::new(
            "rpc_latency",
            "RPC latency (NFS, /tmp remote)",
            report::latency_table(&configs[2].latency),
        ),
        Artifact::new(
            "trace_summary",
            format!("Trace summary: Andrew on SNFS (/tmp remote, seed {seed})"),
            report::trace_summary(trace),
        ),
        Artifact::new(
            "latency_profile",
            format!("Latency profile: Andrew on SNFS (/tmp remote, seed {seed})"),
            report::profile_table(&profile),
        ),
    ];
    let snapshots = vec![
        ("stats_andrew_snfs.json", traced.stats.to_json()),
        ("profile_andrew_snfs.json", profile.to_json()),
    ];
    Family {
        runs: AndrewRuns { configs, traced },
        artifacts,
        snapshots,
    }
}

fn figure(name: &'static str, title: &str, run: &AndrewRun) -> Artifact {
    let total_calls: u64 = run.rate_buckets.iter().map(|b| b.total).sum();
    let peak_rate = run.rate_buckets.iter().map(|b| b.total).max().unwrap_or(0);
    let peak_util = run.util_samples.iter().map(|(_, u)| *u).fold(0.0, f64::max);
    Artifact::new(name, title, report::figure_series(run)).ledger(
        name,
        vec![
            ("total_calls".into(), total_calls.to_string()),
            ("peak_bucket_calls".into(), peak_rate.to_string()),
            ("peak_util".into(), format!("{peak_util:.4}")),
        ],
    )
}

/// Tables 5-3 to 5-6 from two sort sweeps (three input sizes on local
/// disk, NFS and SNFS), with the update daemons on and off.
pub fn sort() -> Family<()> {
    let sweep = |update: bool| {
        let mut runs = Vec::new();
        for &kb in &[281u64, 1408, 2816] {
            for p in [Protocol::Local, Protocol::Nfs, Protocol::Snfs] {
                runs.push(run_sort_experiment(p, kb * 1024, update));
            }
        }
        runs
    };
    let (upd, noupd) = (sweep(true), sweep(false));
    let elapsed = |runs: &[SortRun]| -> LedgerRows {
        runs.iter()
            .map(|r| {
                (
                    format!(
                        "sort_{}k_{}_s",
                        r.input_bytes / 1024,
                        slug_of(r.protocol.label())
                    ),
                    secs1(r.elapsed),
                )
            })
            .collect()
    };
    // Tables 5-4/5-6 are the NFS and SNFS rows at 2816 KB: the last two
    // of each sweep.
    let t54 = [&upd[7], &upd[8]];
    let t56 = [&upd[7], &noupd[7], &upd[8], &noupd[8]];
    let rpcs54 = t54
        .iter()
        .map(|r| {
            (
                format!("sort_2816k_{}_rpcs", slug_of(r.protocol.label())),
                r.ops.total().to_string(),
            )
        })
        .collect();
    let rpcs56 = t56
        .iter()
        .map(|r| {
            (
                format!(
                    "sort_2816k_{}_{}_rpcs",
                    slug_of(r.protocol.label()),
                    if r.update_enabled { "upd" } else { "noupd" }
                ),
                r.ops.total().to_string(),
            )
        })
        .collect();
    Family {
        runs: (),
        artifacts: vec![
            Artifact::new(
                "table_5_3",
                "Table 5-3: results of sort benchmark",
                report::sort_table(&upd),
            )
            .ledger("table_5_3", elapsed(&upd)),
            Artifact::new(
                "table_5_4",
                "Table 5-4: RPC calls for sort benchmark",
                report::sort_rpc_table(t54),
            )
            .ledger("table_5_4", rpcs54),
            Artifact::new(
                "table_5_5",
                "Table 5-5: sort benchmark, infinite write-delay",
                report::sort_table(&noupd),
            )
            .ledger("table_5_5", elapsed(&noupd)),
            Artifact::new(
                "table_5_6",
                "Table 5-6: RPC calls for sort, update on/off (2816 KB)",
                report::sort_rpc_table(t56),
            )
            .ledger("table_5_6", rpcs56),
        ],
        snapshots: Vec::new(),
    }
}

/// The §5.3 microbenchmark: write 1 MB, close, then reopen and read the
/// same file or another one.
pub fn micro() -> Family<()> {
    let runs: Vec<_> = [
        (Protocol::Nfs, true),
        (Protocol::Nfs, false),
        (Protocol::NfsFixed, true),
        (Protocol::Snfs, true),
    ]
    .into_iter()
    .map(|(p, same)| run_reopen(p, same, 1024 * 1024))
    .collect();
    let rows = runs
        .iter()
        .map(|r| {
            (
                format!(
                    "{}_{}_read_ms",
                    slug_of(r.protocol.label()),
                    if r.same_file { "same" } else { "other" }
                ),
                format!("{:.1}", r.result.read_time.as_secs_f64() * 1e3),
            )
        })
        .collect();
    single(
        Artifact::new(
            "section_5_3_microbenchmark",
            "Section 5.3 microbenchmark: write-close-reopen-read",
            report::reopen_table(&runs),
        )
        .ledger("micro_reopen", rows),
    )
}

/// Write RPCs that reach the server for a 64 KB temp file deleted
/// after each lifetime.
pub fn temp_lifetime() -> Family<()> {
    let mut t = TextTable::new(vec!["lifetime", "NFS writes", "SNFS writes"]);
    for secs in [1u64, 5, 15, 45, 90] {
        let d = SimDuration::from_secs(secs);
        let nfs = run_temp_lifetime(Protocol::Nfs, 64 * 1024, d);
        let snfs = run_temp_lifetime(Protocol::Snfs, 64 * 1024, d);
        t.row(vec![
            format!("{secs} s"),
            nfs.write_rpcs.to_string(),
            snfs.write_rpcs.to_string(),
        ]);
    }
    single(Artifact::new(
        "temp_lifetime",
        "Temp-file lifetime sweep (64 KB, deleted after <lifetime>)",
        t.render(),
    ))
}

/// §2.3 server scaling: makespan and server disk writes for 1-8
/// concurrent diskless-workstation clients.
pub fn scaling(seed: u64) -> Family<()> {
    let mut t = TextTable::new(vec![
        "clients",
        "NFS makespan s",
        "SNFS makespan s",
        "NFS disk wr",
        "SNFS disk wr",
    ]);
    let mut rows = Vec::new();
    for &n in &[1usize, 2, 4, 8] {
        let nfs = run_scaling(Protocol::Nfs, n, seed);
        let snfs = run_scaling(Protocol::Snfs, n, seed);
        t.row(vec![
            n.to_string(),
            format!("{:.0}", nfs.makespan.as_secs_f64()),
            format!("{:.0}", snfs.makespan.as_secs_f64()),
            nfs.disk_writes.to_string(),
            snfs.disk_writes.to_string(),
        ]);
        for r in [&nfs, &snfs] {
            let p = slug_of(r.protocol.label());
            rows.push((format!("{p}_{n}_makespan_s"), secs1(r.makespan)));
            rows.push((format!("{p}_{n}_disk_wr"), r.disk_writes.to_string()));
        }
    }
    single(
        Artifact::new(
            "server_scaling_paper_2_3",
            "Server scaling (paper §2.3)",
            t.render(),
        )
        .ledger("scaling", rows),
    )
}

/// One server-scaling run: `clients` SNFS clients with `/tmp` remote
/// over the given server I/O pipeline (seed 42).
pub fn server_scaling_run(io: ServerIoParams, clients: usize, trace: bool) -> ScalingRun {
    let params = TestbedParams {
        protocol: Protocol::Snfs,
        tmp_remote: true,
        server_io: io,
        trace,
        ..TestbedParams::default()
    };
    run_scaling_with(params, clients, 42)
}

/// What the server-scaling gate checks beyond the rendering.
pub struct ServerScalingRuns {
    /// 8-client makespan, paper over pipelined.
    pub gain_at_8: f64,
    /// Pipelined with 4 clients, traced and checked: a real C-LOOK
    /// schedule for the disk-queue checker rule.
    pub traced: ScalingRun,
}

/// Server scaling with the server I/O pipeline (§2.3 extended): the
/// same SNFS clients against the paper-faithful FIFO server
/// ([`ServerIoParams::paper`]) and the pipelined one
/// ([`ServerIoParams::pipelined`]). The pipeline only reorders and
/// absorbs server disk work; writes stay synchronous.
pub fn server_scaling() -> Family<ServerScalingRuns> {
    let mut t = TextTable::new(vec![
        "clients",
        "paper s",
        "pipelined s",
        "speedup",
        "paper util",
        "pipe util",
    ]);
    let mut labeled: Vec<(String, ScalingRun)> = Vec::new();
    let mut gain_at_8 = 0.0;
    for n in [4usize, 8] {
        let paper = server_scaling_run(ServerIoParams::paper(), n, false);
        let pipe = server_scaling_run(ServerIoParams::pipelined(), n, false);
        let speedup = paper.makespan.as_secs_f64() / pipe.makespan.as_secs_f64();
        if n == 8 {
            gain_at_8 = speedup;
        }
        t.row(vec![
            n.to_string(),
            format!("{:.0}", paper.makespan.as_secs_f64()),
            format!("{:.0}", pipe.makespan.as_secs_f64()),
            format!("{speedup:.2}x"),
            format!("{:.2}", paper.server_util),
            format!("{:.2}", pipe.server_util),
        ]);
        labeled.push((format!("paper/{n}"), paper));
        labeled.push((format!("pipelined/{n}"), pipe));
    }
    let rows: Vec<(&str, &ScalingRun)> = labeled.iter().map(|(l, r)| (l.as_str(), r)).collect();
    let body = format!(
        "{}\nserver I/O pipeline observability:\n{}",
        t.render(),
        report::server_io_table(&rows)
    );
    let mut ledger: LedgerRows = labeled
        .iter()
        .map(|(label, r)| (format!("{}_makespan_s", slug_of(label)), secs1(r.makespan)))
        .collect();
    ledger.push(("gain_at_8_x".into(), format!("{gain_at_8:.2}")));
    let artifact = Artifact::new(
        "server_scaling",
        "Server scaling: FIFO paper server vs pipelined server I/O (SNFS, seed 42)",
        body,
    )
    .ledger("server_scaling", ledger);
    // The 8-client pipelined run's snapshot, for offline diffing.
    let pipe8 = &labeled.last().expect("runs recorded").1;
    let snapshots = vec![("stats_server_scaling.json", pipe8.stats.to_json())];
    let traced = server_scaling_run(ServerIoParams::pipelined(), 4, true);
    Family {
        artifacts: vec![artifact],
        snapshots,
        runs: ServerScalingRuns { gain_at_8, traced },
    }
}

/// Time to flush a 64-block dirty file: the paper's serial flush vs
/// the gathered + pipelined write-behind pool.
pub fn flush_latency() -> Family<FlushLatency> {
    let exp = run_flush_latency(64);
    let (paper, piped) = (&exp.runs[0], &exp.runs[1]);
    let ms = |d: SimDuration| format!("{:.2}", d.as_secs_f64() * 1e3);
    // Sim-time metrics only, under names the compare ignore-list does
    // not match ("serial_ms"/"speedup" are reserved for wall clock).
    let rows = vec![
        ("flush_paper_ms".into(), ms(paper.flush_time)),
        ("flush_pipelined_ms".into(), ms(piped.flush_time)),
        ("flush_gain_x".into(), format!("{:.2}", exp.speedup())),
        ("paper_write_rpcs".into(), paper.write_rpcs.to_string()),
        ("pipelined_write_rpcs".into(), piped.write_rpcs.to_string()),
        (
            "pipelined_mean_batch".into(),
            format!("{:.2}", piped.mean_batch),
        ),
        (
            "pipelined_peak_inflight".into(),
            piped.peak_inflight.to_string(),
        ),
    ];
    let artifact = Artifact::new(
        "flush_latency",
        "Flush latency: 64-block write-back, serial vs gathered+pipelined",
        exp.report(),
    )
    .ledger("flush_latency", rows);
    Family {
        artifacts: vec![artifact],
        snapshots: vec![("stats_flush_pipelined.json", exp.traced.stats.to_json())],
        runs: exp,
    }
}

/// Paper vs pipelined transport on single-client Andrew and an 8-client
/// shared read (seed 42).
pub fn rpc_transport() -> Family<TransportComparison> {
    let cmp = run_transport_comparison(42);
    let rows = vec![
        (
            "andrew_paper_msgs".into(),
            cmp.andrew_paper.stats.transport.net_messages.to_string(),
        ),
        (
            "andrew_pipe_msgs".into(),
            cmp.andrew_pipe.stats.transport.net_messages.to_string(),
        ),
        (
            "scale8_paper_msgs".into(),
            cmp.scale8_paper.messages.to_string(),
        ),
        (
            "scale8_pipe_msgs".into(),
            cmp.scale8_pipe.messages.to_string(),
        ),
        (
            "total_reduction_pct".into(),
            format!("{:.1}", cmp.total_reduction()),
        ),
        (
            "andrew_gain_x".into(),
            format!("{:.2}", cmp.andrew_speedup()),
        ),
        (
            "scale8_gain_x".into(),
            format!("{:.2}", cmp.scaling_speedup()),
        ),
    ];
    let artifact = Artifact::new(
        "rpc_transport",
        "RPC transport: paper vs pipelined transport (Andrew + 8-client scaling, seed 42)",
        cmp.report(),
    )
    .ledger("rpc_transport", rows);
    Family {
        artifacts: vec![artifact],
        snapshots: vec![(
            "stats_rpc_transport.json",
            cmp.scale8_pipe.tb.stats_snapshot().to_json(),
        )],
        runs: cmp,
    }
}

/// The NFS client's invalidate-on-close bug (§5.3): sort 1408 KB on
/// vintage NFS, fixed NFS and SNFS.
pub fn close_bug() -> Family<()> {
    let mut t = TextTable::new(vec!["client", "elapsed s", "reads", "writes"]);
    let mut rows = Vec::new();
    for p in [Protocol::Nfs, Protocol::NfsFixed, Protocol::Snfs] {
        let r = run_sort_experiment(p, 1408 * 1024, true);
        let reads = r.ops.get(NfsProc::Read).to_string();
        t.row(vec![
            p.label().to_string(),
            secs1(r.elapsed),
            reads.clone(),
            r.ops.get(NfsProc::Write).to_string(),
        ]);
        rows.push((format!("{}_sort_s", slug_of(p.label())), secs1(r.elapsed)));
        rows.push((format!("{}_reads", slug_of(p.label())), reads));
    }
    single(
        Artifact::new(
            "ablation_close_bug",
            "Ablation: invalidate-on-close bug (sort 1408 KB)",
            t.render(),
        )
        .ledger("ablation_close_bug", rows),
    )
}

/// The §6.2 delayed-close extension on Andrew with `/tmp` local.
pub fn delayed_close() -> Family<()> {
    let mut t = TextTable::new(vec!["variant", "total s", "open", "close", "total ops"]);
    let mut rows = Vec::new();
    for p in [Protocol::Snfs, Protocol::SnfsDelayedClose] {
        let r = run_andrew(p, false, 42);
        let ops = &r.ops_with_tail;
        t.row(vec![
            p.label().to_string(),
            format!("{:.0}", r.times.total().as_secs_f64()),
            ops.get(NfsProc::Open).to_string(),
            ops.get(NfsProc::Close).to_string(),
            ops.total().to_string(),
        ]);
        rows.push((
            format!("{}_total_s", slug_of(p.label())),
            secs1(r.times.total()),
        ));
        rows.push((
            format!("{}_rpcs", slug_of(p.label())),
            ops.total().to_string(),
        ));
    }
    single(
        Artifact::new(
            "ablation_delayed_close",
            "Ablation: delayed close (Andrew, /tmp local)",
            t.render(),
        )
        .ledger("ablation_delayed_close", rows),
    )
}

/// The SNFS write-delay policy on sort 2816 KB: flush everything every
/// 30 s (Unix), flush blocks aged 30 s (Sprite), or never.
pub fn write_delay() -> Family<()> {
    let snfs = TestbedParams {
        protocol: Protocol::Snfs,
        tmp_remote: true,
        ..TestbedParams::default()
    };
    let variants = [
        (
            "flush-all@30s (Unix)",
            TestbedParams {
                snfs_write_delay: SimDuration::ZERO,
                ..snfs
            },
        ),
        (
            "age>=30s (Sprite)",
            TestbedParams {
                snfs_write_delay: SimDuration::from_secs(30),
                ..snfs
            },
        ),
        (
            "infinite",
            TestbedParams {
                update_enabled: false,
                ..snfs
            },
        ),
    ];
    let mut t = TextTable::new(vec!["policy", "elapsed s", "write RPCs"]);
    let mut rows = Vec::new();
    for (name, params) in variants {
        let r = run_sort_with(params, 2816 * 1024);
        let writes = r.ops.get(NfsProc::Write).to_string();
        t.row(vec![name.to_string(), secs1(r.elapsed), writes.clone()]);
        rows.push((format!("{}_write_rpcs", slug_of(name)), writes));
    }
    single(
        Artifact::new(
            "ablation_write_delay",
            "Ablation: SNFS write-delay policy (sort 2816 KB)",
            t.render(),
        )
        .ledger("ablation_write_delay", rows),
    )
}

/// Client name caching (§7) on Andrew with `/tmp` remote: NFS (TTL
/// dnlc) and SNFS (directory callbacks), each without and with it.
pub fn name_cache() -> Family<()> {
    let mut t = TextTable::new(vec!["variant", "total s", "lookups", "total ops"]);
    let mut rows = Vec::new();
    for (label, protocol, name_cache) in [
        ("NFS", Protocol::Nfs, false),
        ("NFS + dnlc", Protocol::Nfs, true),
        ("SNFS", Protocol::Snfs, false),
        ("SNFS + name cache", Protocol::Snfs, true),
    ] {
        let params = TestbedParams {
            protocol,
            tmp_remote: true,
            name_cache,
            ..TestbedParams::default()
        };
        let r = run_andrew_with(params, 42);
        let n = r.ops_with_tail.get(NfsProc::Lookup);
        t.row(vec![
            label.to_string(),
            format!("{:.0}", r.times.total().as_secs_f64()),
            n.to_string(),
            r.ops_with_tail.total().to_string(),
        ]);
        rows.push((format!("{}_lookups", slug_of(label)), n.to_string()));
    }
    single(
        Artifact::new(
            "ablation_name_cache",
            "Ablation: name caching (Andrew, /tmp remote)",
            t.render(),
        )
        .ledger("ablation_name_cache", rows),
    )
}

/// The NFS attribute-probe floor (footnote 3) on Andrew with `/tmp`
/// remote, at 1, 3, 10 and 60 s.
pub fn probe_interval() -> Family<()> {
    let mut t = TextTable::new(vec!["probe floor", "total s", "getattr RPCs"]);
    let mut rows = Vec::new();
    for secs in [1u64, 3, 10, 60] {
        let params = TestbedParams {
            protocol: Protocol::Nfs,
            tmp_remote: true,
            nfs_attr_min: SimDuration::from_secs(secs),
            ..TestbedParams::default()
        };
        let r = run_andrew_with(params, 42);
        let n = r.ops_with_tail.get(NfsProc::GetAttr);
        t.row(vec![
            format!("{secs} s"),
            format!("{:.0}", r.times.total().as_secs_f64()),
            n.to_string(),
        ]);
        rows.push((format!("probe_{secs}s_getattrs"), n.to_string()));
    }
    single(
        Artifact::new(
            "ablation_probe_interval",
            "Ablation: NFS attribute-probe interval (Andrew)",
            t.render(),
        )
        .ledger("ablation_probe_interval", rows),
    )
}

#[cfg(test)]
mod tests {
    use super::slug_of;

    #[test]
    fn slugs_are_stable() {
        assert_eq!(slug_of("Table 9-9: a title after the colon"), "table_9_9");
        assert_eq!(slug_of("Per-shard load (§18)"), "per_shard_load_18");
        assert_eq!(
            slug_of("andrew NFS tmp-rem seed=42"),
            "andrew_nfs_tmp_rem_seed_42"
        );
    }
}
