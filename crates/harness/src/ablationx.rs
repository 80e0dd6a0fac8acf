//! Ablation run sets shared by the benches and the baseline tests: client
//! name caching (§7) and the NFS attribute-probe floor (footnote 3), both
//! on the single-client Andrew benchmark with `/tmp` remote (seed 42).

use spritely_metrics::TextTable;
use spritely_proto::NfsProc;
use spritely_sim::SimDuration;

use crate::andrew::run_andrew_with;
use crate::testbed::{Protocol, TestbedParams};

/// The name-caching ablation: NFS (TTL dnlc) and SNFS (directory
/// callbacks), each without and with a client name cache. Returns the
/// rendered table and each variant's lookup RPCs.
pub fn run_name_cache_ablation() -> (String, Vec<(&'static str, u64)>) {
    let mut t = TextTable::new(vec!["variant", "total s", "lookups", "total ops"]);
    let mut lookups = Vec::new();
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
        lookups.push((label, n));
    }
    (t.render(), lookups)
}

/// The attribute-probe ablation: NFS at probe floors of 1, 3, 10 and
/// 60 s. Returns the rendered table and each floor's `getattr` RPCs.
pub fn run_probe_interval_ablation() -> (String, Vec<(u64, u64)>) {
    let mut t = TextTable::new(vec!["probe floor", "total s", "getattr RPCs"]);
    let mut getattrs = Vec::new();
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
        getattrs.push((secs, n));
    }
    (t.render(), getattrs)
}
