//! Whole-experiment determinism: identical inputs produce bit-identical
//! measurements, across every protocol. This is what makes the
//! reproduction auditable — any observed difference between two configs
//! is caused by the config, not by scheduling noise.

use spritely::harness::{run_scaling_shards, run_sort_experiment, run_temp_lifetime, Protocol};
use spritely::sim::SimDuration;

#[test]
fn sort_runs_are_bit_identical() {
    for p in [Protocol::Local, Protocol::Nfs, Protocol::Snfs] {
        let a = run_sort_experiment(p, 281 * 1024, true);
        let b = run_sort_experiment(p, 281 * 1024, true);
        assert_eq!(a.elapsed, b.elapsed, "{p:?} elapsed");
        assert_eq!(a.ops, b.ops, "{p:?} op counts");
        assert_eq!(a.client_disk_writes, b.client_disk_writes, "{p:?} disk");
    }
}

#[test]
fn temp_lifetime_runs_are_bit_identical() {
    let run = || {
        let r = run_temp_lifetime(Protocol::Snfs, 64 * 1024, SimDuration::from_secs(45));
        r.write_rpcs
    };
    assert_eq!(run(), run());
}

#[test]
fn sharded_scaling_runs_are_bit_identical() {
    let a = run_scaling_shards(4, 32, 42);
    let b = run_scaling_shards(4, 32, 42);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.stats.to_json(), b.stats.to_json());
}

#[test]
fn different_seeds_differ_but_same_seed_agrees() {
    use spritely::workloads::{AndrewBenchmark, AndrewParams};
    let a = AndrewBenchmark::new(7, AndrewParams::default());
    let b = AndrewBenchmark::new(7, AndrewParams::default());
    let c = AndrewBenchmark::new(8, AndrewParams::default());
    assert_eq!(a.source_bytes(), b.source_bytes());
    assert_ne!(a.source_bytes(), c.source_bytes());
}
