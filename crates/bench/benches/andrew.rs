//! The Andrew-benchmark family: Tables 5-1/5-2, Figures 5-1/5-2, the NFS
//! RPC-latency table and the traced SNFS run (trace summary, latency
//! profile, stats snapshot, and the full trace for Perfetto).

use criterion::{criterion_group, criterion_main, Criterion};
use spritely_bench::{artifact_file, config, emit};
use spritely_harness::{artifacts, run_andrew, Protocol};

fn bench(c: &mut Criterion) {
    let family = artifacts::andrew(42);
    emit(&family);
    let trace = family.runs.traced.trace.as_ref().expect("tracing was on");
    artifact_file("trace_andrew_snfs.jsonl", &trace.to_jsonl());
    artifact_file("trace_andrew_snfs.chrome.json", &trace.to_chrome_json());
    let mut g = c.benchmark_group("andrew");
    g.bench_function("andrew_snfs_tmp_remote", |b| {
        b.iter(|| run_andrew(Protocol::Snfs, true, 42).times.total())
    });
    g.bench_function("andrew_nfs_tmp_remote", |b| {
        b.iter(|| run_andrew(Protocol::Nfs, true, 42).ops_with_tail.total())
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench
}
criterion_main!(benches);
