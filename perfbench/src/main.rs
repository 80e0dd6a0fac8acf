//! One repetition of one benchmark workload, printed as one JSON line.
//!
//! ```text
//! perfbench --workload <andrew|shards_8x512|sharing> --seed <n> [--traced]
//! ```
//!
//! `run.py` next to this crate builds it, repeats it for the run length,
//! checks the repetitions against each other and prints the medians.
//! The line has four groups of numbers:
//!
//! * `sim`: deterministic end-to-end sim-time metrics;
//! * `host`: end-to-end host costs (wall clock, memory);
//! * `layer`: per-layer numbers, deterministic except the host timings
//!   (`sim.host_ns_per_event`, `harness.*`, `trace.host_ms_*`);
//! * `errors`: failed output checks (none in a good run).

mod layers;
mod measure;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

use workloads::{OpLog, Run, OP_KINDS};

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    traced: bool,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut traced = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => workload = it.next(),
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                seed = Some(v.parse().map_err(|_| format!("bad seed {v:?}"))?);
            }
            "--traced" => traced = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        traced,
    })
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON object of numbers. Rust prints an `f64` with the fewest
/// digits that read back to the same value, so nothing is rounded.
fn json_obj(m: &BTreeMap<String, f64>) -> String {
    let body: Vec<String> = m
        .iter()
        .map(|(k, v)| {
            assert!(v.is_finite(), "metric {k} is not finite: {v}");
            format!("{}:{v}", json_str(k))
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Client ops of the measured phase: the client loops' own log, or for
/// Andrew, whose ops the benchmark does not issue itself, the
/// client-visible op spans of the trace profile.
fn client_ops(run: &mut Run) -> Option<OpLog> {
    if !run.ops.kinds.is_empty() {
        return Some(std::mem::take(&mut run.ops));
    }
    let trace = run.trace.as_ref()?;
    let mut log = OpLog::default();
    for &(op, us) in &trace.spans {
        let e = log.kinds.entry(op).or_default();
        e.0 += 1;
        e.2.push(us);
    }
    Some(log)
}

fn ms(us: u64) -> f64 {
    us as f64 / 1000.0
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let rss_before = measure::self_kb("VmRSS");
    let mut run = match args.workload.as_str() {
        "andrew" => workloads::andrew(args.seed, args.traced),
        "shards_8x512" => workloads::shards(args.seed, args.traced),
        "sharing" => workloads::sharing(args.seed, args.traced),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    // Every testbed is dropped by now.
    let rss_after = measure::self_kb("VmRSS");
    let peak = measure::self_kb("VmHWM");

    let mut errors = std::mem::take(&mut run.errors);
    if let Some(first) = run.stale_reads.first() {
        eprintln!(
            "perfbench: {} stale reads; the first: {first}",
            run.stale_reads.len()
        );
    }
    let mut sim = BTreeMap::new();
    let mut host = BTreeMap::new();
    let mut layer = BTreeMap::new();
    let c = &run.counters;
    sim.insert("sim_makespan_s".to_string(), run.makespan_s);
    sim.insert("net_msgs".to_string(), c.get("net_msgs"));
    sim.insert(
        "server_disk_writes".to_string(),
        c.get("server_disk_writes"),
    );
    host.insert("wall_s".to_string(), run.wall_s);
    host.insert("setup_s".to_string(), run.setup_s);
    host.insert("peak_rss_mb".to_string(), peak as f64 / 1024.0);
    host.insert(
        "retained_mb".to_string(),
        measure::retained_mb(rss_before, rss_after),
    );
    host.insert("harness.host_ms_build".to_string(), run.build_ms);
    host.insert("harness.host_ms_snapshot".to_string(), run.snapshot_ms);
    host.insert(
        "sim.host_ns_per_event".to_string(),
        run.wall_s * 1e9 / c.get("sim.events").max(1.0),
    );

    for (&k, &v) in &c.0 {
        if k != "net_msgs" && k != "server_disk_writes" {
            layer.insert(k.to_string(), v);
        }
    }
    layer.insert("vfs.stale_reads".to_string(), run.stale_reads.len() as f64);
    let hits = c.get("localfs.cache_hits");
    let lookups = hits + c.get("localfs.cache_misses");
    layer.insert("localfs.cache_lookups".to_string(), lookups);
    layer.insert(
        "localfs.cache_hit_ratio".to_string(),
        hits / lookups.max(1.0),
    );
    let hits = c.get("core.client_cache_hits");
    let lookups = hits + c.get("core.client_cache_misses");
    layer.remove("core.client_cache_hits");
    layer.remove("core.client_cache_misses");
    layer.insert("core.client_cache_lookups".to_string(), lookups);
    layer.insert(
        "core.client_cache_hit_ratio".to_string(),
        hits / lookups.max(1.0),
    );

    let (mut attempted, mut failed) = (0, 0);
    if let Some(ops) = client_ops(&mut run) {
        (attempted, failed) = ops.totals();
        let all = ops.all_sorted();
        sim.insert(
            "ops_failed_pct".to_string(),
            measure::failed_pct(failed, attempted),
        );
        sim.insert("op_p50_ms".to_string(), ms(measure::median(&all)));
        for (name, q) in [("op_p99_ms", 0.99), ("op_p999_ms", 0.999)] {
            match measure::percentile(&all, q) {
                Some(v) => {
                    sim.insert(name.to_string(), ms(v));
                }
                None => errors.push(format!(
                    "{} ops are too few for {name}: it needs {} samples beyond it",
                    all.len(),
                    measure::MIN_BEYOND
                )),
            }
        }
        sim.insert("op_samples".to_string(), all.len() as f64);
        layer.insert("vfs.ops_attempted".to_string(), attempted as f64);
        layer.insert("vfs.ops_failed".to_string(), failed as f64);
        for kind in OP_KINDS {
            let (n, mut lat) = ops
                .kinds
                .get(kind)
                .map_or((0, Vec::new()), |e| (e.0, e.2.clone()));
            lat.sort_unstable();
            let (q, tail) = measure::tail(&lat).unwrap_or((0.0, 0));
            layer.insert(format!("vfs.ops.{kind}"), n as f64);
            layer.insert(format!("vfs.p50_ms.{kind}"), ms(measure::median(&lat)));
            layer.insert(format!("vfs.tail_ms.{kind}"), ms(tail));
            layer.insert(format!("vfs.tail_pct.{kind}"), q * 100.0);
        }
        for kind in ops.kinds.keys().filter(|k| !OP_KINDS.contains(k)) {
            errors.push(format!("op kind {kind} is not reported"));
        }
    }
    if let Some(t) = &run.trace {
        if t.violations > 0 {
            errors.push(format!("trace checker: {} violations", t.violations));
        }
        if let Some(first) = &t.first_stale_read {
            eprintln!(
                "perfbench: trace checker: {} stale-read violations; the first: {first}",
                t.stale_reads
            );
        }
        layer.insert("trace.stale_reads".to_string(), t.stale_reads as f64);
        layer.insert("trace.events".to_string(), t.events as f64);
        layer.insert("trace.host_ms_check".to_string(), t.check_ms);
        layer.insert("trace.host_ms_profile".to_string(), t.profile_ms);
        layer.insert("trace.host_ms_export".to_string(), t.export_ms);
        for (&k, &v) in &t.phases.0 {
            if k != "trace.span_ms" && k != "trace.unattributed_ms" {
                layer.insert(k.to_string(), v);
            }
        }
        let span = t.phases.get("trace.span_ms");
        let attributed = span - t.phases.get("trace.unattributed_ms");
        layer.insert(
            "trace.attributed_pct".to_string(),
            if span > 0.0 {
                attributed * 100.0 / span
            } else {
                100.0
            },
        );
    }

    let errors: Vec<String> = errors.iter().map(|e| json_str(e)).collect();
    println!(
        "{{\"workload\":{},\"seed\":{},\"traced\":{},\"attempted\":{attempted},\"failed\":{failed},\"errors\":[{}],\"sim\":{},\"host\":{},\"layer\":{}}}",
        json_str(&args.workload),
        args.seed,
        args.traced,
        errors.join(","),
        json_obj(&sim),
        json_obj(&host),
        json_obj(&layer),
    );
    ExitCode::SUCCESS
}
