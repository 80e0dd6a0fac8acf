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

use spritely::harness::{
    compare_json, render_matrix, report, run_andrew, run_andrew_traced, run_andrew_with,
    run_flush_with, run_matrix, run_reopen, run_scaling, run_scaling_with, run_sort_experiment,
    run_temp_lifetime, CompareOptions, Experiment, Protocol, ServerIoParams, TestbedParams,
    WriteBehindParams,
};
use spritely::metrics::TextTable;
use spritely::proto::NfsProc;
use spritely::sim::SimDuration;
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

/// Ledger/filename slug for a free-form run label.
fn slug(label: &str) -> String {
    let mut out = String::new();
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('_') {
            out.push('_');
        }
    }
    out.trim_matches('_').to_string()
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

fn andrew_runs(seed: u64) -> Vec<spritely::harness::AndrewRun> {
    vec![
        run_andrew(Protocol::Local, false, seed),
        run_andrew(Protocol::Nfs, false, seed),
        run_andrew(Protocol::Nfs, true, seed),
        run_andrew(Protocol::Snfs, false, seed),
        run_andrew(Protocol::Snfs, true, seed),
    ]
}

fn table_5_1(seed: u64) {
    println!("Table 5-1: Andrew benchmark elapsed time (seconds)\n");
    println!("{}", report::table_5_1(&andrew_runs(seed)));
}

fn table_5_2(seed: u64) {
    println!("Table 5-2: RPC calls for the Andrew benchmark (steady state)\n");
    println!("{}", report::table_5_2(&andrew_runs(seed)));
}

fn table_5_3() {
    let mut runs = Vec::new();
    for &kb in &[281u64, 1408, 2816] {
        for p in [Protocol::Local, Protocol::Nfs, Protocol::Snfs] {
            runs.push(run_sort_experiment(p, kb * 1024, true));
        }
    }
    println!("Table 5-3: results of sort benchmark\n");
    println!("{}", report::sort_table(&runs));
}

fn table_5_4() {
    let runs = vec![
        run_sort_experiment(Protocol::Nfs, 2816 * 1024, true),
        run_sort_experiment(Protocol::Snfs, 2816 * 1024, true),
    ];
    println!("Table 5-4: RPC calls for sort benchmark (2816 KB)\n");
    println!("{}", report::sort_rpc_table(&runs));
}

fn table_5_5() {
    let mut runs = Vec::new();
    for &kb in &[281u64, 1408, 2816] {
        for p in [Protocol::Local, Protocol::Nfs, Protocol::Snfs] {
            runs.push(run_sort_experiment(p, kb * 1024, false));
        }
    }
    println!("Table 5-5: sort benchmark, infinite write-delay\n");
    println!("{}", report::sort_table(&runs));
}

fn table_5_6() {
    let runs = vec![
        run_sort_experiment(Protocol::Nfs, 2816 * 1024, true),
        run_sort_experiment(Protocol::Nfs, 2816 * 1024, false),
        run_sort_experiment(Protocol::Snfs, 2816 * 1024, true),
        run_sort_experiment(Protocol::Snfs, 2816 * 1024, false),
    ];
    println!("Table 5-6: RPC calls for sort, update on/off (2816 KB)\n");
    println!("{}", report::sort_rpc_table(&runs));
}

fn figure(which: &str, seed: u64) {
    let (proto, title) = match which {
        "5-1" => (Protocol::Nfs, "Figure 5-1 (NFS)"),
        "5-2" => (Protocol::Snfs, "Figure 5-2 (SNFS)"),
        _ => unreachable!("validated by caller"),
    };
    let run = run_andrew(proto, true, seed);
    println!("# {title}: server utilization and call rates, /tmp remote");
    print!("{}", report::figure_series(&run));
}

fn micro() {
    let runs = vec![
        run_reopen(Protocol::Nfs, true, 1024 * 1024),
        run_reopen(Protocol::Nfs, false, 1024 * 1024),
        run_reopen(Protocol::NfsFixed, true, 1024 * 1024),
        run_reopen(Protocol::Snfs, true, 1024 * 1024),
    ];
    println!("Section 5.3 microbenchmark: write-close-reopen-read (1 MB)\n");
    println!("{}", report::reopen_table(&runs));
}

fn lifetime() {
    println!("Temp-file lifetime sweep (64 KB, deleted after <lifetime>):\n");
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
    println!("{}", t.render());
}

fn scaling(seed: u64) {
    println!("Server scaling (§2.3): concurrent diskless-workstation clients\n");
    let mut t = TextTable::new(vec![
        "clients",
        "NFS makespan",
        "SNFS makespan",
        "speedup",
        "NFS ops",
        "SNFS ops",
    ]);
    for &n in &[1usize, 2, 4, 8] {
        let nfs = run_scaling(Protocol::Nfs, n, seed);
        let snfs = run_scaling(Protocol::Snfs, n, seed);
        t.row(vec![
            n.to_string(),
            format!("{:.0} s", nfs.makespan.as_secs_f64()),
            format!("{:.0} s", snfs.makespan.as_secs_f64()),
            format!(
                "{:.2}x",
                nfs.makespan.as_secs_f64() / snfs.makespan.as_secs_f64()
            ),
            nfs.ops.total().to_string(),
            snfs.ops.total().to_string(),
        ]);
    }
    println!("{}", t.render());
    let _ = NfsProc::Null; // keep the import obviously used
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
        write_artifact(&format!("matrix/{}.json", slug(&r.label)), &r.stats_json);
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
        ("table", Some("5-1")) => table_5_1(seed),
        ("table", Some("5-2")) => table_5_2(seed),
        ("table", Some("5-3")) => table_5_3(),
        ("table", Some("5-4")) => table_5_4(),
        ("table", Some("5-5")) => table_5_5(),
        ("table", Some("5-6")) => table_5_6(),
        ("figure", Some(f @ ("5-1" | "5-2"))) => figure(f, seed),
        ("micro", None) => micro(),
        ("lifetime", None) => lifetime(),
        ("scaling", None) => scaling(seed),
        ("matrix", None) => matrix(seed, parse_threads(&args)),
        ("profile", Some(w)) => return profile(w, seed),
        ("compare", Some(a)) => {
            let Some(b) = words.next().map(String::as_str) else {
                return usage();
            };
            return compare(a, b, &args);
        }
        ("all", None) => {
            table_5_1(seed);
            table_5_2(seed);
            table_5_3();
            table_5_4();
            table_5_5();
            table_5_6();
            figure("5-1", seed);
            figure("5-2", seed);
            micro();
            lifetime();
            scaling(seed);
        }
        _ => return usage(),
    }
    ExitCode::SUCCESS
}
