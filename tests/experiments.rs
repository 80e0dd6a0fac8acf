//! Shape assertions for the paper's headline results: who wins, by
//! roughly what factor, and where the crossovers fall. Absolute numbers
//! are our simulator's, not the authors' testbed's; these tests pin the
//! *relationships* the paper reports, and the ones the opt-in
//! pipelines promise over the paper configuration.

use spritely::harness::{run_andrew, run_sort_experiment, run_temp_lifetime, Protocol};
use spritely::proto::NfsProc;
use spritely::sim::SimDuration;

#[test]
fn sort_ordering_and_factors_match_the_paper() {
    // Table 5-3: local < SNFS << NFS, with NFS roughly 2-4x slower.
    let local = run_sort_experiment(Protocol::Local, 1408 * 1024, true);
    let nfs = run_sort_experiment(Protocol::Nfs, 1408 * 1024, true);
    let snfs = run_sort_experiment(Protocol::Snfs, 1408 * 1024, true);
    assert!(local.elapsed <= snfs.elapsed);
    assert!(snfs.elapsed < nfs.elapsed);
    let ratio = nfs.elapsed.as_secs_f64() / snfs.elapsed.as_secs_f64();
    assert!(
        ratio > 1.5,
        "paper: SNFS completes ~2x faster; got ratio {ratio:.2}"
    );
}

#[test]
fn sort_rpc_profile_matches_table_5_4() {
    // NFS re-reads what it wrote (close bug) and writes everything
    // through; SNFS barely reads and writes far less during the run.
    let nfs = run_sort_experiment(Protocol::Nfs, 1408 * 1024, true);
    let snfs = run_sort_experiment(Protocol::Snfs, 1408 * 1024, true);
    assert!(nfs.ops.get(NfsProc::Read) > 500);
    assert!(nfs.ops.get(NfsProc::Write) > 500);
    assert!(snfs.ops.get(NfsProc::Read) < nfs.ops.get(NfsProc::Read) / 5);
    assert!(snfs.ops.get(NfsProc::Write) < nfs.ops.get(NfsProc::Write) / 2);
    assert!(snfs.ops.total() < nfs.ops.total());
}

#[test]
fn infinite_write_delay_matches_tables_5_5_and_5_6() {
    // With /etc/update disabled, SNFS writes (almost) nothing to the
    // server and approaches local-disk time; NFS is unchanged.
    let nfs_on = run_sort_experiment(Protocol::Nfs, 1408 * 1024, true);
    let nfs_off = run_sort_experiment(Protocol::Nfs, 1408 * 1024, false);
    let snfs_off = run_sort_experiment(Protocol::Snfs, 1408 * 1024, false);
    let local_off = run_sort_experiment(Protocol::Local, 1408 * 1024, false);
    assert_eq!(
        nfs_on.ops.get(NfsProc::Write),
        nfs_off.ops.get(NfsProc::Write),
        "NFS performance/traffic unchanged by update (§5.4)"
    );
    assert!(
        snfs_off.ops.get(NfsProc::Write) <= 2,
        "SNFS writes ~0 blocks with infinite write-delay"
    );
    let ratio = snfs_off.elapsed.as_secs_f64() / local_off.elapsed.as_secs_f64();
    assert!(
        ratio < 1.25,
        "SNFS matches or beats local for short-lived temps; ratio {ratio:.2}"
    );
}

#[test]
fn temp_file_lifetime_crossover_is_the_update_interval() {
    // The crossover the paper's §5.4 implies: below the 30 s tick a temp
    // file is free under SNFS, above it the data escapes.
    let below = run_temp_lifetime(Protocol::Snfs, 128 * 1024, SimDuration::from_secs(10));
    let above = run_temp_lifetime(Protocol::Snfs, 128 * 1024, SimDuration::from_secs(70));
    assert_eq!(below.write_rpcs, 0);
    assert!(above.write_rpcs >= 30, "post-tick the blocks were flushed");
    let nfs = run_temp_lifetime(Protocol::Nfs, 128 * 1024, SimDuration::from_secs(10));
    assert!(nfs.write_rpcs >= 32, "NFS pays regardless of lifetime");
}

#[test]
fn andrew_shape_matches_table_5_1() {
    // /tmp remote: the configuration the paper highlights (diskless
    // workstation). SNFS wins Copy and Make and the total by 10-40%.
    let nfs = run_andrew(Protocol::Nfs, true, 42);
    let snfs = run_andrew(Protocol::Snfs, true, 42);
    assert!(snfs.times.copy < nfs.times.copy, "Copy favors SNFS");
    assert!(snfs.times.make < nfs.times.make, "Make favors SNFS");
    let total_gain = 1.0 - snfs.times.total().as_secs_f64() / nfs.times.total().as_secs_f64();
    assert!(
        (0.08..0.45).contains(&total_gain),
        "payload total 15-20%-ish faster; got {:.0}%",
        total_gain * 100.0
    );
    // Table 5-2 aggregates: lookups dominate both protocols equally;
    // SNFS moves far less data.
    assert!(nfs.ops_with_tail.get(NfsProc::Lookup) * 2 >= nfs.ops_with_tail.total() / 2);
    assert_eq!(
        nfs.ops_with_tail.get(NfsProc::Lookup) + 51,
        snfs.ops_with_tail.get(NfsProc::Lookup) + 51,
        "same lookup protocol on both sides"
    );
    assert!(
        snfs.ops_with_tail.data_transfers() < nfs.ops_with_tail.data_transfers() / 2,
        "paper: 42% fewer data-transfer operations (ours is stronger)"
    );
    // Server disk writes 30%+ lower under SNFS (paper: 30-35%).
    assert!(snfs.server_disk.writes * 10 <= nfs.server_disk.writes * 7);
}

#[test]
fn figures_5_1_5_2_series_are_plausible() {
    let nfs = run_andrew(Protocol::Nfs, true, 42);
    let snfs = run_andrew(Protocol::Snfs, true, 42);
    // Both series have enough points to plot and nonzero activity.
    assert!(nfs.rate_buckets.len() >= 8);
    assert!(snfs.rate_buckets.len() >= 8);
    let nfs_peak = nfs.rate_buckets.iter().map(|b| b.total).max().unwrap();
    let snfs_peak = snfs.rate_buckets.iter().map(|b| b.total).max().unwrap();
    assert!(nfs_peak > 0 && snfs_peak > 0);
    // Utilization stays a fraction (sampler sanity).
    for &(_, u) in nfs.util_samples.iter().chain(&snfs.util_samples) {
        assert!((0.0..=1.0).contains(&u), "utilization {u} out of range");
    }
    // Paper: load correlates with aggregate call rate. Check the
    // correlation coefficient is clearly positive for NFS.
    let r = correlation(
        &nfs.util_samples.iter().map(|&(_, u)| u).collect::<Vec<_>>(),
        &nfs.rate_buckets
            .iter()
            .map(|b| b.total as f64)
            .collect::<Vec<_>>(),
    );
    assert!(r > 0.5, "CPU load should track call rate; r = {r:.2}");
}

fn correlation(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    if n < 3 {
        return 0.0;
    }
    let (a, b) = (&a[..n], &b[..n]);
    let ma = a.iter().sum::<f64>() / n as f64;
    let mb = b.iter().sum::<f64>() / n as f64;
    let cov: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum();
    let va: f64 = a.iter().map(|x| (x - ma).powi(2)).sum();
    let vb: f64 = b.iter().map(|y| (y - mb).powi(2)).sum();
    if va == 0.0 || vb == 0.0 {
        0.0
    } else {
        cov / (va.sqrt() * vb.sqrt())
    }
}

#[test]
fn ablation_close_bug_accounts_for_part_of_the_gap() {
    // §5.3: the authors estimate the invalidate-on-close bug explains
    // less than a quarter of the sort difference. Fixing it must help
    // NFS but not erase SNFS's lead.
    let nfs = run_sort_experiment(Protocol::Nfs, 1408 * 1024, true);
    let fixed = run_sort_experiment(Protocol::NfsFixed, 1408 * 1024, true);
    let snfs = run_sort_experiment(Protocol::Snfs, 1408 * 1024, true);
    assert!(fixed.elapsed <= nfs.elapsed);
    assert!(
        fixed.ops.get(NfsProc::Read) < nfs.ops.get(NfsProc::Read) / 2,
        "fixed client re-reads far less"
    );
    assert!(
        snfs.elapsed < fixed.elapsed,
        "write-through still loses to delayed write-back"
    );
}

#[test]
fn ablation_delayed_close_reduces_rpc_count() {
    // §6.2: delayed close should cut open/close traffic on the Andrew
    // benchmark (header files are reopened constantly).
    let snfs = run_andrew(Protocol::Snfs, false, 42);
    let dc = run_andrew(Protocol::SnfsDelayedClose, false, 42);
    let oc = |r: &spritely::harness::AndrewRun| {
        r.ops_with_tail.get(NfsProc::Open) + r.ops_with_tail.get(NfsProc::Close)
    };
    assert!(
        oc(&dc) * 2 < oc(&snfs),
        "delayed close halves open/close traffic: {} vs {}",
        oc(&dc),
        oc(&snfs)
    );
    assert!(dc.times.total() <= snfs.times.total());
}

#[test]
fn server_capacity_gap_grows_with_clients() {
    // §2.3: the more active clients, the bigger SNFS's advantage — the
    // server disk is NFS's bottleneck, and SNFS keeps traffic off it.
    use spritely::harness::run_scaling;
    let speedup = |n: usize| {
        let nfs = run_scaling(Protocol::Nfs, n, 42);
        let snfs = run_scaling(Protocol::Snfs, n, 42);
        nfs.makespan.as_secs_f64() / snfs.makespan.as_secs_f64()
    };
    let one = speedup(1);
    let four = speedup(4);
    assert!(
        four > one,
        "advantage grows with load: {one:.2}x -> {four:.2}x"
    );
    assert!(
        four > 1.3,
        "multi-client speedup is substantial: {four:.2}x"
    );
}

/// The 4-client shared-file read (read-ahead window 8, so background
/// fetches batch into compounds): the pipelined transport cuts both
/// wire messages and makespan, and its trace passes the
/// batch-conservation and at-most-once checker rules.
#[test]
fn pipelined_transport_beats_paper_on_four_client_data_scaling() {
    use spritely::harness::{run_data_scaling, TransportParams};
    let paper = run_data_scaling(TransportParams::paper(), 4, false);
    let piped = run_data_scaling(TransportParams::pipelined(), 4, true);
    let report = piped.tb.finish_trace().expect("trace was on");
    assert!(report.ok(), "checker violations: {:?}", report.violations);
    assert!(
        piped.messages < paper.messages,
        "pipelined transport did not reduce wire messages: {} vs {}",
        piped.messages,
        paper.messages
    );
    assert!(
        piped.makespan_s < paper.makespan_s,
        "pipelined transport is not faster: {:.2} s vs {:.2} s",
        piped.makespan_s,
        paper.makespan_s
    );
}
