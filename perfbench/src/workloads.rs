//! The three workloads. Each builds its testbed, runs an untimed
//! set-up phase, then a measured phase, and checks what the clients read
//! back. Everything the sim does is a function of the seed alone.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::future::Future;
use std::rc::Rc;
use std::time::Instant;

use spritely::harness::{
    DelegationParams, Protocol, RemoteClient, ServerIoParams, ShardParams, Testbed, TestbedParams,
    TransportParams, WriteBehindParams,
};
use spritely::proto::{NfsStatus, Result, BLOCK_SIZE};
use spritely::sim::{JoinHandle, Sim, SimDuration, SimRng, SimTime};
use spritely::trace::{check_trace, profile_trace, to_jsonl};
use spritely::vfs::{OpenFlags, Proc};
use spritely::workloads::{AndrewBenchmark, AndrewConfig, AndrewParams};

use crate::layers::{self, Counters};

/// Andrew runs per repetition, on consecutive seeds.
pub const ANDREW_SEEDS: u64 = 20;

/// The op kinds the client loops and the trace profile report, in order.
pub const OP_KINDS: [&str; 8] = [
    "open", "close", "read", "write", "fsync", "stat", "rename", "remove",
];

/// Attempts, failures and sim-time latencies of client ops, by kind.
#[derive(Debug, Default)]
pub struct OpLog {
    /// Per kind: attempts, failed attempts, latency of every attempt (µs).
    pub kinds: BTreeMap<&'static str, (u64, u64, Vec<u64>)>,
}

impl OpLog {
    fn record(&mut self, kind: &'static str, latency_us: u64, ok: bool) {
        let e = self.kinds.entry(kind).or_default();
        e.0 += 1;
        e.1 += u64::from(!ok);
        e.2.push(latency_us);
    }

    /// Total attempts and failed attempts.
    pub fn totals(&self) -> (u64, u64) {
        self.kinds
            .values()
            .fold((0, 0), |(a, f), e| (a + e.0, f + e.1))
    }

    /// Every latency sample, sorted.
    pub fn all_sorted(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.kinds.values().flat_map(|e| e.2.clone()).collect();
        v.sort_unstable();
        v
    }
}

/// A client's handle on the shared op log and check list.
#[derive(Clone)]
struct Recorder {
    sim: Sim,
    log: Rc<RefCell<OpLog>>,
    errors: Rc<RefCell<Vec<String>>>,
    stale: Rc<RefCell<Vec<String>>>,
}

impl Recorder {
    fn new(sim: &Sim) -> Self {
        Recorder {
            sim: sim.clone(),
            log: Rc::default(),
            errors: Rc::default(),
            stale: Rc::default(),
        }
    }

    /// Runs one op attempt, timing it in sim time and counting it.
    async fn op<T>(&self, kind: &'static str, fut: impl Future<Output = Result<T>>) -> Result<T> {
        let t0 = self.sim.now();
        let r = fut.await;
        let us = self.sim.now().duration_since(t0).as_micros();
        self.log.borrow_mut().record(kind, us, r.is_ok());
        r
    }

    fn fail(&self, what: String) {
        self.errors.borrow_mut().push(what);
    }
}

/// What tracing recorded, and what it cost on the host.
#[derive(Debug, Default)]
pub struct TraceOut {
    pub events: u64,
    /// Checker violations other than `stale-read`: each fails the run.
    pub violations: u64,
    /// `stale-read` violations: the known stale-read defect, counted.
    pub stale_reads: u64,
    /// The first `stale-read` violation, for the diagnostics.
    pub first_stale_read: Option<String>,
    pub check_ms: f64,
    pub profile_ms: f64,
    pub export_ms: f64,
    /// Profile phase totals of the measured spans.
    pub phases: Counters,
    /// Client-visible op spans of the measured phase: (kind, µs).
    pub spans: Vec<(&'static str, u64)>,
}

/// One repetition of a workload.
#[derive(Debug, Default)]
pub struct Run {
    /// Host seconds: testbed builds plus the untimed set-up phases.
    pub setup_s: f64,
    /// Host seconds in the measured phases.
    pub wall_s: f64,
    /// Host milliseconds in `Testbed::build_with_clients`.
    pub build_ms: f64,
    /// Host milliseconds in `stats_snapshot().to_json()`.
    pub snapshot_ms: f64,
    /// Sim seconds in the measured phases.
    pub makespan_s: f64,
    /// Counter deltas over the measured phases.
    pub counters: Counters,
    /// Ops the benchmark's own client loops issued (empty for Andrew).
    pub ops: OpLog,
    /// Failed output checks.
    pub errors: Vec<String>,
    /// Reads that returned an intact but superseded version.
    pub stale_reads: Vec<String>,
    /// Present when the run was traced.
    pub trace: Option<TraceOut>,
}

/// Builds a testbed, timing the build.
fn build(run: &mut Run, params: TestbedParams, clients: usize) -> Testbed {
    let t = Instant::now();
    let tb = Testbed::build_with_clients(params, clients);
    run.build_ms += t.elapsed().as_secs_f64() * 1e3;
    tb
}

/// Client `i`'s own random stream for a run with `seed`.
fn client_rng(seed: u64, i: usize) -> SimRng {
    SimRng::new(seed.wrapping_mul(1_000_003).wrapping_add(i as u64))
}

/// Runs every handle to completion.
fn join_all<T: 'static>(tb: &Testbed, handles: Vec<JoinHandle<T>>) -> Vec<T> {
    handles.into_iter().map(|h| tb.sim.run_until(h)).collect()
}

/// Drains set-up write-backs, then empties every client cache, so the
/// measured phase starts cold (as `run_andrew` does).
fn drain_and_cold_boot(tb: &Testbed) {
    let sim = tb.sim.clone();
    let h = tb
        .sim
        .spawn(async move { sim.sleep(SimDuration::from_secs(65)).await });
    tb.sim.run_until(h);
    for host in &tb.clients {
        if let RemoteClient::Snfs(c) = host.remote.clone() {
            let h = tb
                .sim
                .spawn(async move { c.cold_boot().await.expect("cold boot") });
            tb.sim.run_until(h);
        }
    }
}

/// Runs `body` as the measured phase and adds its host time, sim time
/// and counter deltas to `run`; then, for a traced testbed, checks,
/// profiles and exports the trace.
fn measure<T>(run: &mut Run, tb: &Testbed, body: impl FnOnce(&Testbed) -> T) -> T {
    let t0 = tb.sim.now();
    let before = layers::read(tb);
    let host = Instant::now();
    let out = body(tb);
    run.wall_s += host.elapsed().as_secs_f64();
    let t1 = tb.sim.now();
    run.makespan_s += t1.duration_since(t0).as_secs_f64();
    run.counters.accumulate(&layers::read(tb).since(&before));
    let t = Instant::now();
    std::hint::black_box(tb.stats_snapshot().to_json());
    run.snapshot_ms += t.elapsed().as_secs_f64() * 1e3;
    if let Some(tracer) = &tb.tracer {
        let events = tracer.finish();
        let trace = run.trace.get_or_insert_with(TraceOut::default);
        trace.events += events.len() as u64;
        let t = Instant::now();
        for v in check_trace(&events) {
            if v.invariant == "stale-read" {
                trace.stale_reads += 1;
                trace.first_stale_read.get_or_insert_with(|| v.to_string());
            } else {
                trace.violations += 1;
            }
        }
        trace.check_ms += t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let profile = profile_trace(&events);
        trace.profile_ms += t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        std::hint::black_box(to_jsonl(&events));
        trace.export_ms += t.elapsed().as_secs_f64() * 1e3;
        let spans = layers::spans_within(&profile, t0.as_micros(), t1.as_micros());
        trace.spans.extend(
            spans
                .iter()
                .filter(|o| !o.synthetic)
                .map(|o| (o.op, o.total_us())),
        );
        trace.phases.accumulate(&layers::phases(&spans));
    }
    out
}

/// `andrew`: the paper's Andrew benchmark, one SNFS client with `/tmp`
/// remote and every paper-mode default, on the [`ANDREW_SEEDS`]
/// consecutive seeds from `seed * ANDREW_SEEDS`, so that runs with
/// different seeds share no Andrew tree. Afterwards every copied file is
/// read back and compared with its source.
pub fn andrew(seed: u64, traced: bool) -> Run {
    let mut run = Run::default();
    let first = seed.wrapping_mul(ANDREW_SEEDS);
    for s in first..first.saturating_add(ANDREW_SEEDS) {
        let setup = Instant::now();
        let tb = build(
            &mut run,
            TestbedParams {
                protocol: Protocol::Snfs,
                tmp_remote: true,
                trace: traced,
                ..TestbedParams::default()
            },
            1,
        );
        let cfg = AndrewConfig {
            src_base: "/remote/src".to_string(),
            target_base: "/remote/target".to_string(),
            tmp_base: "/usr/tmp".to_string(),
        };
        let p = tb.proc();
        let src = cfg.src_base.clone();
        let h = tb.sim.spawn(async move {
            AndrewBenchmark::new(s, AndrewParams::default())
                .populate_source(&p, &src)
                .await
        });
        if let Err(e) = tb.sim.run_until(h) {
            run.errors
                .push(format!("andrew seed {s}: populate failed: {e:?}"));
            continue;
        }
        drain_and_cold_boot(&tb);
        run.setup_s += setup.elapsed().as_secs_f64();

        let makespan_before = run.makespan_s;
        let p = tb.proc();
        let bench_cfg = cfg.clone();
        let result = measure(&mut run, &tb, |tb| {
            let h = tb.sim.spawn(async move {
                AndrewBenchmark::new(s, AndrewParams::default())
                    .run(&p, &bench_cfg)
                    .await
            });
            tb.sim.run_until(h)
        });
        match result {
            Ok(times) => {
                let measured = run.makespan_s - makespan_before;
                if (times.total().as_secs_f64() - measured).abs() > 1e-9 {
                    run.errors.push(format!(
                        "andrew seed {s}: phases sum to {} but the window is {measured} s",
                        times.total().as_secs_f64()
                    ));
                }
            }
            Err(e) => run
                .errors
                .push(format!("andrew seed {s}: benchmark failed: {e:?}")),
        }
        let p = tb.proc();
        let h = tb.sim.spawn(async move { compare_trees(&p, &cfg).await });
        run.errors.extend(tb.sim.run_until(h));
    }
    run
}

/// Reads every file of the Andrew source tree and its copy in the
/// target tree and reports any pair that differs.
async fn compare_trees(p: &Proc, cfg: &AndrewConfig) -> Vec<String> {
    let mut errors = Vec::new();
    let read_all = |path: String| async move {
        let fd = p.open(&path, OpenFlags::read()).await?;
        let mut data = Vec::new();
        loop {
            let chunk = p.read(fd, BLOCK_SIZE as u32).await?;
            if chunk.is_empty() {
                break;
            }
            data.extend_from_slice(&chunk);
        }
        p.close(fd).await?;
        Ok::<_, NfsStatus>(data)
    };
    let dirs = match p.readdir(&cfg.src_base).await {
        Ok(d) => d,
        Err(e) => return vec![format!("andrew: readdir {}: {e:?}", cfg.src_base)],
    };
    let mut compared = 0;
    for d in dirs.iter().filter(|d| !d.starts_with('.')) {
        let files = match p.readdir(&format!("{}/{d}", cfg.src_base)).await {
            Ok(f) => f,
            Err(e) => {
                errors.push(format!("andrew: readdir {d}: {e:?}"));
                continue;
            }
        };
        for f in files.iter().filter(|f| !f.starts_with('.')) {
            let src = read_all(format!("{}/{d}/{f}", cfg.src_base)).await;
            let dst = read_all(format!("{}/{d}/{f}", cfg.target_base)).await;
            match (src, dst) {
                (Ok(a), Ok(b)) if a == b && !a.is_empty() => compared += 1,
                (Ok(_), Ok(_)) => errors.push(format!("andrew: {d}/{f} copy differs")),
                (a, b) => errors.push(format!("andrew: {d}/{f} read failed: {a:?} {b:?}")),
            }
        }
    }
    if compared == 0 {
        errors.push("andrew: no file was compared".to_string());
    }
    errors
}

/// Shards in `shards_8x512`.
const SHARDS: usize = 8;
/// Clients in `shards_8x512`.
const SHARD_CLIENTS: usize = 512;
/// Files each client writes, syncs and reads back.
const SHARD_FILES: usize = 4;
/// Blocks per file.
const SHARD_BLOCKS: usize = 2;

/// `shards_8x512`: 512 SNFS clients over 8 shards, each on its own
/// subtree, starting one per 25 ms (the ramp of `run_scaling_shards`,
/// with a seeded offset inside each client's slot). Each creates,
/// writes, syncs, closes, reopens and reads back [`SHARD_FILES`] small
/// files, then renames one. A failed op is retried after a backoff, as a
/// hard-mounted client would; every attempt is timed and counted.
pub fn shards(seed: u64, traced: bool) -> Run {
    let mut run = Run::default();
    let setup = Instant::now();
    let tb = build(
        &mut run,
        TestbedParams {
            protocol: Protocol::Snfs,
            shards: ShardParams::sharded(SHARDS),
            trace: traced,
            ..TestbedParams::default()
        },
        SHARD_CLIENTS,
    );
    let handles = tb
        .clients
        .iter()
        .enumerate()
        .map(|(i, host)| {
            let p = host.proc(&tb.sim);
            let dir = shard_dir(i);
            tb.sim.spawn(async move { p.mkdir(&dir).await })
        })
        .collect();
    for (i, r) in join_all(&tb, handles).into_iter().enumerate() {
        if let Err(e) = r {
            run.errors
                .push(format!("shards: mkdir {}: {e:?}", shard_dir(i)));
        }
    }
    run.setup_s += setup.elapsed().as_secs_f64();

    let recorder = Recorder::new(&tb.sim);
    measure(&mut run, &tb, |tb| {
        let handles = tb
            .clients
            .iter()
            .enumerate()
            .map(|(i, host)| {
                let p = host.proc(&tb.sim);
                let d = recorder.clone();
                tb.sim.spawn(shard_client(d, p, i, seed))
            })
            .collect();
        join_all(tb, handles);
    });
    run.ops = recorder.log.take();
    run.errors.extend(recorder.errors.take());
    run
}

/// Client `i`'s subtree; its root-level name picks the shard.
fn shard_dir(i: usize) -> String {
    format!("/remote/u{i}")
}

/// The bytes of every block of file `f` of client `i`.
fn shard_block(seed: u64, i: usize, f: usize) -> Vec<u8> {
    let fill = (seed as u8)
        .wrapping_add(i as u8)
        .wrapping_add(f as u8)
        .wrapping_add(1);
    vec![fill; BLOCK_SIZE]
}

/// One `shards_8x512` client.
async fn shard_client(d: Recorder, p: Proc, i: usize, seed: u64) {
    let sim = d.sim.clone();
    // Clients start 25 ms apart, each at a seeded point of its slot.
    let jitter = client_rng(seed, i).range_u64(0, 25_000);
    sim.sleep(SimDuration::from_micros(25_000 * i as u64 + jitter))
        .await;
    // The backoff is jittered by client index and grows with the attempt
    // count, so that a herd of clients does not retry in lockstep.
    let backoff =
        |attempt: u64| SimDuration::from_millis((50 + (i as u64 * 13) % 250) * attempt.min(48));
    macro_rules! insist {
        ($kind:expr, $e:expr) => {{
            let mut attempt = 0u64;
            loop {
                match d.op($kind, $e).await {
                    Ok(v) => break v,
                    Err(_) => {
                        attempt += 1;
                        sim.sleep(backoff(attempt)).await;
                    }
                }
            }
        }};
    }
    // `Proc::close` drops the fd before the wire close, so a retried
    // close can only see `Inval`: the close either executed or the
    // server reconciles the open count. It still counts as a failure.
    macro_rules! insist_close {
        ($fd:expr) => {{
            let mut attempt = 0u64;
            loop {
                match d.op("close", p.close($fd)).await {
                    Ok(()) | Err(NfsStatus::Inval) => break,
                    Err(_) => {
                        attempt += 1;
                        sim.sleep(backoff(attempt)).await;
                    }
                }
            }
        }};
    }
    for f in 0..SHARD_FILES {
        let path = format!("{}/f{f}", shard_dir(i));
        let block = shard_block(seed, i, f);
        let fd = insist!("open", p.open(&path, OpenFlags::create_write()));
        for b in 0..SHARD_BLOCKS {
            insist!("write", p.write_at(fd, (b * BLOCK_SIZE) as u64, &block));
        }
        insist!("fsync", p.fsync(fd));
        insist_close!(fd);
        let fd = insist!("open", p.open(&path, OpenFlags::read()));
        let mut off = 0u64;
        loop {
            let data = insist!("read", p.read_at(fd, off, BLOCK_SIZE as u32));
            if data.is_empty() {
                break;
            }
            if data != block {
                d.fail(format!("shards: {path} @{off}: read-back differs"));
            }
            off += data.len() as u64;
        }
        if off != (SHARD_BLOCKS * BLOCK_SIZE) as u64 {
            d.fail(format!("shards: {path}: read back {off} bytes"));
        }
        insist_close!(fd);
    }
    // A rename inside the subtree. It is not idempotent, so a failed
    // attempt is confirmed at the destination before it is retried.
    let dir = shard_dir(i);
    let (from, to) = (format!("{dir}/f0"), format!("{dir}/g0"));
    let mut attempt = 0u64;
    loop {
        if d.op("rename", p.rename(&from, &to)).await.is_ok()
            || d.op("stat", p.stat(&to)).await.is_ok()
        {
            break;
        }
        attempt += 1;
        sim.sleep(backoff(attempt)).await;
    }
}

/// Clients in `sharing`.
const SHARING_CLIENTS: usize = 8;
/// Hot files every client opens, and blocks in each.
const HOT_FILES: usize = 4;
const HOT_BLOCKS: usize = 4;
/// Private files per client, and blocks in each.
const PRIVATE_FILES: usize = 3;
const PRIVATE_BLOCKS: usize = 2;
/// Rounds per client: one hot-file session and two private sessions.
const ROUNDS: usize = 300;

/// The bytes of a hot-file block at `version`: the version number, then
/// a fill that depends on file, block and version.
fn hot_block(h: usize, b: usize, version: u64) -> Vec<u8> {
    let fill = ((version * 7 + h as u64 * 31 + b as u64 * 13) % 251) as u8 + 1;
    let mut v = vec![fill; BLOCK_SIZE];
    v[..8].copy_from_slice(&version.to_le_bytes());
    v
}

/// The bytes of block `b` of private file `k` of client `i`.
fn private_block(seed: u64, i: usize, k: usize, b: usize) -> Vec<u8> {
    vec![((seed + (i * 17 + k * 5 + b) as u64) % 251) as u8 + 1; BLOCK_SIZE]
}

/// One write to a hot block: when it was issued, when the write call
/// returned (`None` while in flight), and when the writer's close
/// returned.
#[derive(Debug, Clone, Copy)]
struct HotWrite {
    version: u64,
    writer: usize,
    issued: SimTime,
    done: Option<SimTime>,
    closed: Option<SimTime>,
}

/// Every write to every hot block, for the staleness check.
#[derive(Default)]
struct HotLog {
    next_version: u64,
    writes: BTreeMap<(usize, usize), Vec<HotWrite>>,
}

impl HotLog {
    /// Records a write to `(h, b)` issued at `now`; returns its version.
    fn issue(&mut self, writer: usize, h: usize, b: usize, now: SimTime) -> u64 {
        self.next_version += 1;
        let version = self.next_version;
        self.writes.entry((h, b)).or_default().push(HotWrite {
            version,
            writer,
            issued: now,
            done: None,
            closed: None,
        });
        version
    }

    fn write_mut(&mut self, h: usize, b: usize, version: u64) -> &mut HotWrite {
        self.writes
            .get_mut(&(h, b))
            .and_then(|ws| ws.iter_mut().find(|w| w.version == version))
            .expect("every version is recorded when issued")
    }

    /// Checks a read of hot block `(h, b)` in a session opened at
    /// `opened` that returned `data`. The data must be an intact version
    /// of that block. It is stale if a write whose writer closed before
    /// `opened` was issued after that version's write returned: that
    /// write supersedes it.
    fn check(&self, h: usize, b: usize, opened: SimTime, data: &[u8]) -> HotRead {
        let Some(version) = data
            .get(..8)
            .map(|v| u64::from_le_bytes(v.try_into().expect("8 bytes")))
            .filter(|&v| data == hot_block(h, b, v).as_slice())
        else {
            return HotRead::Corrupt(format!("hot h{h} b{b}: bytes are no written version"));
        };
        let writes = self.writes.get(&(h, b)).map_or(&[][..], Vec::as_slice);
        let read_done = if version == 0 {
            Some(SimTime::ZERO)
        } else {
            match writes.iter().find(|w| w.version == version) {
                Some(w) => w.done,
                None => {
                    return HotRead::Corrupt(format!(
                        "hot h{h} b{b}: version {version} was never written"
                    ))
                }
            }
        };
        // A version whose write is still in flight is the newest there is.
        let Some(read_done) = read_done else {
            return HotRead::Fresh;
        };
        match writes
            .iter()
            .find(|w| w.closed.is_some_and(|c| c <= opened) && w.issued > read_done)
        {
            None => HotRead::Fresh,
            Some(w) => HotRead::Stale(format!(
                "hot h{h} b{b}: read version {version} in a session opened at {opened:?}, \
                 but version {} by client {} was issued at {:?} and closed at {:?}",
                w.version, w.writer, w.issued, w.closed
            )),
        }
    }
}

/// The verdict on one read of a hot block.
enum HotRead {
    Fresh,
    Stale(String),
    Corrupt(String),
}

/// `sharing`: 8 SNFS clients on the full pipelined stack with name
/// caching. Each round a client opens one of a few hot files shared by
/// every client — as a writer or as a reader — and works on two of its
/// blocks with a pause between, then opens, reads back and closes two of
/// its private files. Every read is checked against what was written.
pub fn sharing(seed: u64, traced: bool) -> Run {
    let mut run = Run::default();
    let setup = Instant::now();
    let tb = build(
        &mut run,
        TestbedParams {
            protocol: Protocol::Snfs,
            server_io: ServerIoParams::pipelined(),
            write_behind: WriteBehindParams::pipelined(),
            transport: TransportParams::pipelined(),
            delegation: DelegationParams::pipelined(),
            name_cache: true,
            trace: traced,
            ..TestbedParams::default()
        },
        SHARING_CLIENTS,
    );
    let handles = tb
        .clients
        .iter()
        .enumerate()
        .map(|(i, host)| {
            let p = host.proc(&tb.sim);
            tb.sim.spawn(async move {
                if i == 0 {
                    p.mkdir("/remote/hot").await?;
                    for h in 0..HOT_FILES {
                        let blocks: Vec<u8> =
                            (0..HOT_BLOCKS).flat_map(|b| hot_block(h, b, 0)).collect();
                        write_file(&p, &format!("/remote/hot/h{h}"), &blocks).await?;
                    }
                }
                p.mkdir(&format!("/remote/p{i}")).await?;
                for k in 0..PRIVATE_FILES {
                    let blocks: Vec<u8> = (0..PRIVATE_BLOCKS)
                        .flat_map(|b| private_block(seed, i, k, b))
                        .collect();
                    write_file(&p, &format!("/remote/p{i}/f{k}"), &blocks).await?;
                }
                Ok::<_, NfsStatus>(())
            })
        })
        .collect();
    for (i, r) in join_all(&tb, handles).into_iter().enumerate() {
        if let Err(e) = r {
            run.errors
                .push(format!("sharing: set-up of client {i}: {e:?}"));
        }
    }
    drain_and_cold_boot(&tb);
    run.setup_s += setup.elapsed().as_secs_f64();

    let recorder = Recorder::new(&tb.sim);
    let hot = Rc::new(RefCell::new(HotLog::default()));
    measure(&mut run, &tb, |tb| {
        let handles = tb
            .clients
            .iter()
            .enumerate()
            .map(|(i, host)| {
                let p = host.proc(&tb.sim);
                let rng = client_rng(seed, i);
                tb.sim.spawn(sharing_client(
                    recorder.clone(),
                    hot.clone(),
                    p,
                    rng,
                    i,
                    seed,
                ))
            })
            .collect();
        join_all(tb, handles);
    });
    run.ops = recorder.log.take();
    run.errors.extend(recorder.errors.take());
    run.stale_reads = recorder.stale.take();
    run
}

/// Creates `path` holding `data` (set-up only).
async fn write_file(p: &Proc, path: &str, data: &[u8]) -> Result<()> {
    let fd = p.open(path, OpenFlags::create_write()).await?;
    p.write(fd, data).await?;
    p.close(fd).await
}

/// One `sharing` client. An op that fails is recorded as failed and the
/// session moves on: no retry, since nothing here is expected to fail.
async fn sharing_client(
    d: Recorder,
    hot: Rc<RefCell<HotLog>>,
    p: Proc,
    rng: SimRng,
    i: usize,
    seed: u64,
) {
    let sim = d.sim.clone();
    let think = |rng: &SimRng| SimDuration::from_millis(rng.range_u64(2, 40));
    sim.sleep(SimDuration::from_millis(i as u64 * 7)).await;
    for _ in 0..ROUNDS {
        // Hot-file session: a writer writes one block and reads another;
        // a reader reads two.
        let h = rng.index(HOT_FILES);
        let writer = rng.index(3) == 0;
        let path = format!("/remote/hot/h{h}");
        let flags = if writer {
            OpenFlags::read_write()
        } else {
            OpenFlags::read()
        };
        let opened = sim.now();
        match d.op("open", p.open(&path, flags)).await {
            Err(e) => d.fail(format!("sharing: open {path}: {e:?}")),
            Ok(fd) => {
                let mut mine = Vec::new();
                for step in 0..2 {
                    let b = rng.index(HOT_BLOCKS);
                    let off = (b * BLOCK_SIZE) as u64;
                    if writer && step == 0 {
                        let version = hot.borrow_mut().issue(i, h, b, sim.now());
                        match d
                            .op("write", p.write_at(fd, off, &hot_block(h, b, version)))
                            .await
                        {
                            Ok(()) => {
                                hot.borrow_mut().write_mut(h, b, version).done = Some(sim.now());
                                mine.push((b, version));
                            }
                            Err(e) => d.fail(format!("sharing: write {path}: {e:?}")),
                        }
                    } else {
                        match d.op("read", p.read_at(fd, off, BLOCK_SIZE as u32)).await {
                            Ok(data) => {
                                let verdict = hot.borrow().check(h, b, opened, &data);
                                match verdict {
                                    HotRead::Fresh => {}
                                    HotRead::Stale(what) => d.stale.borrow_mut().push(what),
                                    HotRead::Corrupt(what) => {
                                        d.fail(format!("sharing: client {i}: {what}"))
                                    }
                                }
                            }
                            Err(e) => d.fail(format!("sharing: read {path}: {e:?}")),
                        }
                    }
                    sim.sleep(think(&rng)).await;
                }
                match d.op("close", p.close(fd)).await {
                    Ok(()) => {
                        let mut log = hot.borrow_mut();
                        for (b, version) in mine {
                            log.write_mut(h, b, version).closed = Some(sim.now());
                        }
                    }
                    Err(e) => d.fail(format!("sharing: close {path}: {e:?}")),
                }
            }
        }
        // Private churn: open, read back, close.
        for _ in 0..2 {
            let k = rng.index(PRIVATE_FILES);
            let path = format!("/remote/p{i}/f{k}");
            let fd = match d.op("open", p.open(&path, OpenFlags::read())).await {
                Ok(fd) => fd,
                Err(e) => {
                    d.fail(format!("sharing: open {path}: {e:?}"));
                    continue;
                }
            };
            for b in 0..=PRIVATE_BLOCKS {
                let off = (b * BLOCK_SIZE) as u64;
                match d.op("read", p.read_at(fd, off, BLOCK_SIZE as u32)).await {
                    Ok(data) if b == PRIVATE_BLOCKS && data.is_empty() => {}
                    Ok(data) if b < PRIVATE_BLOCKS && data == private_block(seed, i, k, b) => {}
                    Ok(_) => d.fail(format!("sharing: {path} block {b}: read-back differs")),
                    Err(e) => d.fail(format!("sharing: read {path}: {e:?}")),
                }
            }
            if let Err(e) = d.op("close", p.close(fd)).await {
                d.fail(format!("sharing: close {path}: {e:?}"));
            }
        }
        sim.sleep(think(&rng)).await;
    }
}
