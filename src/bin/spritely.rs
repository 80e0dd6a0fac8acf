//! Command-line front end: regenerate any of the paper's tables and
//! figures (plus the extension experiments) without writing code.
//!
//! ```text
//! spritely table 5-1 [--seed N]     # Andrew elapsed times
//! spritely table 5-2                # Andrew RPC counts
//! spritely table 5-3|5-4|5-5|5-6    # sort benchmark family
//! spritely figure 5-1|5-2           # utilization/call-rate CSV
//! spritely micro                    # §5.3 write-close-reopen-read
//! spritely lifetime                 # temp-file lifetime sweep
//! spritely scaling                  # §2.3 multi-client capacity
//! spritely matrix [--threads N]     # experiment matrix, fanned across threads
//! spritely profile <workload>       # traced run + phase-attributed latency profile
//! spritely compare <a.json> <b.json>  # diff two snapshot/ledger JSONs
//! spritely all                      # everything above
//! ```

use std::process::ExitCode;

use spritely::harness::artifacts::{self, slug_of, Family};
use spritely::harness::{
    compare_json, render_matrix, report, run_andrew_traced, run_andrew_with, run_flush_with,
    run_matrix, run_scaling_with, CompareOptions, Experiment, Protocol, ServerIoParams,
    TestbedParams, WriteBehindParams,
};
use spritely::trace::profile_trace;

fn usage() -> ExitCode {
    eprintln!(
        "usage: spritely <command> [--seed N]\n\
         commands:\n\
           table 5-1 | 5-2 | 5-3 | 5-4 | 5-5 | 5-6\n\
           figure 5-1 | 5-2\n\
           micro        (§5.3 write-close-reopen-read)\n\
           lifetime     (temp-file lifetime sweep)\n\
           scaling      (§2.3 multi-client capacity)\n\
           matrix       (experiment matrix fanned across --threads N workers;\n\
                         per-cell snapshots land in artifacts/matrix/)\n\
           profile andrew | andrew-pipelined | scaling | flush\n\
                        (traced run; prints the phase-attribution tables and\n\
                         writes artifacts/profile_<slug>.json)\n\
           compare <a.json> <b.json> [--threshold PCT]\n\
                        (diff two snapshot/ledger JSONs; exit 1 on regression)\n\
           all"
    );
    ExitCode::from(2)
}

/// Best-effort write under `artifacts/` (created on demand), relative
/// to the current directory.
fn write_artifact(rel: &str, contents: &str) {
    let path = std::path::Path::new("artifacts").join(rel);
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&path, contents) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

fn parse_seed(args: &[String]) -> u64 {
    args.windows(2)
        .find(|w| w[0] == "--seed")
        .and_then(|w| w[1].parse().ok())
        .unwrap_or(42)
}

/// Prints the catalogue artifacts of `family` named in `names`, or all
/// of them when `names` is empty.
fn show<R>(family: &Family<R>, names: &[&str]) {
    for a in &family.artifacts {
        if names.is_empty() || names.contains(&a.name) {
            print!("{}", a.rendered());
        }
    }
}

fn matrix(seed: u64, threads: usize) {
    let mut jobs = Vec::new();
    for p in [Protocol::Nfs, Protocol::Snfs] {
        for tmp_remote in [false, true] {
            jobs.push(Experiment::Andrew {
                protocol: p,
                tmp_remote,
                seed,
            });
        }
        jobs.push(Experiment::Sort {
            protocol: p,
            input_bytes: 1408 * 1024,
            update: true,
        });
        jobs.push(Experiment::Scaling {
            protocol: p,
            clients: 4,
            seed,
        });
    }
    let results = run_matrix(&jobs, threads);
    println!(
        "Experiment matrix: {} runs on {} worker thread(s)\n",
        jobs.len(),
        threads.max(1)
    );
    println!("{}", render_matrix(&results));
    for r in &results {
        write_artifact(&format!("matrix/{}.json", slug_of(&r.label)), &r.stats_json);
    }
}

fn profile(which: &str, seed: u64) -> ExitCode {
    let (name, trace) = match which {
        "andrew" => ("andrew_snfs", run_andrew_traced(seed).trace),
        "andrew-pipelined" => {
            // Same workload with every perf-mode pipeline enabled.
            let run = run_andrew_with(
                TestbedParams {
                    protocol: Protocol::Snfs,
                    tmp_remote: true,
                    server_io: ServerIoParams::pipelined(),
                    write_behind: WriteBehindParams::pipelined(),
                    trace: true,
                    ..TestbedParams::default()
                },
                seed,
            );
            ("andrew_snfs_pipelined", run.trace)
        }
        "scaling" => {
            let run = run_scaling_with(
                TestbedParams {
                    protocol: Protocol::Snfs,
                    tmp_remote: true,
                    server_io: ServerIoParams::pipelined(),
                    trace: true,
                    ..TestbedParams::default()
                },
                4,
                seed,
            );
            ("scaling_pipelined_4", run.trace)
        }
        "flush" => {
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
            ("flush_pipelined", run.trace)
        }
        _ => return usage(),
    };
    let trace = trace.expect("tracing was requested");
    let p = profile_trace(&trace.events);
    println!("Latency profile: {which} (seed {seed})\n");
    println!("{}", report::profile_table(&p));
    write_artifact(&format!("profile_{name}.json"), &p.to_json());
    ExitCode::SUCCESS
}

fn compare(a: &str, b: &str, args: &[String]) -> ExitCode {
    let mut opts = CompareOptions::default();
    if let Some(pct) = args
        .windows(2)
        .find(|w| w[0] == "--threshold")
        .and_then(|w| w[1].parse::<f64>().ok())
    {
        opts.rel_threshold = pct / 100.0;
    }
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"));
    let (ta, tb) = match (read(a), read(b)) {
        (Ok(x), Ok(y)) => (x, y),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match compare_json(&ta, &tb, &opts) {
        Ok(r) => {
            print!("{}", r.render());
            if r.ok() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Catalogue file stem of `table 5-1`, `figure 5-2`, ...
fn stem(cmd: &str, number: &str) -> String {
    format!("{cmd}_{}", number.replace('-', "_"))
}

fn parse_threads(args: &[String]) -> usize {
    args.windows(2)
        .find(|w| w[0] == "--threads")
        .and_then(|w| w[1].parse().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed = parse_seed(&args);
    let mut words = args
        .iter()
        .filter(|a| !a.starts_with("--") && a.parse::<u64>().is_err());
    let cmd = match words.next() {
        Some(c) => c.as_str(),
        None => return usage(),
    };
    let arg = words.next().map(String::as_str);
    match (cmd, arg) {
        ("table" | "figure", Some(n @ ("5-1" | "5-2"))) => {
            show(&artifacts::andrew(seed), &[&stem(cmd, n)]);
        }
        ("table", Some(n @ ("5-3" | "5-4" | "5-5" | "5-6"))) => {
            show(&artifacts::sort(), &[&stem(cmd, n)]);
        }
        ("micro", None) => show(&artifacts::micro(), &[]),
        ("lifetime", None) => show(&artifacts::temp_lifetime(), &[]),
        ("scaling", None) => show(&artifacts::scaling(seed), &[]),
        ("matrix", None) => matrix(seed, parse_threads(&args)),
        ("profile", Some(w)) => return profile(w, seed),
        ("compare", Some(a)) => {
            let Some(b) = words.next().map(String::as_str) else {
                return usage();
            };
            return compare(a, b, &args);
        }
        ("all", None) => {
            show(&artifacts::andrew(seed), &[]);
            show(&artifacts::sort(), &[]);
            show(&artifacts::micro(), &[]);
            show(&artifacts::temp_lifetime(), &[]);
            show(&artifacts::scaling(seed), &[]);
        }
        _ => return usage(),
    }
    ExitCode::SUCCESS
}
