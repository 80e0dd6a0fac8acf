//! Transport pipeline (compound batching, piggybacked post-op
//! attributes, switched full-duplex wire) vs the paper transport, on
//! single-client Andrew over NFS and an 8-client shared-file read over
//! SNFS (see `spritely_harness::run_transport_comparison`).

use criterion::{criterion_group, criterion_main, Criterion};
use spritely_bench::{config, emit};
use spritely_harness::{artifacts, run_data_scaling, TransportParams};

fn bench(c: &mut Criterion) {
    emit(&artifacts::rpc_transport());
    let mut g = c.benchmark_group("rpc_transport");
    g.bench_function("eight_clients_pipelined", |b| {
        b.iter(|| run_data_scaling(TransportParams::pipelined(), 8, false).makespan_s)
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench
}
criterion_main!(benches);
