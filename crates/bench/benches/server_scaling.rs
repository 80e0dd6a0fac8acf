//! Server scaling with the server I/O pipeline on (paper §2.3 extended):
//! the same SNFS clients against the paper-faithful FIFO server and the
//! pipelined one (see `spritely_harness::artifacts::server_scaling`).

use criterion::{criterion_group, criterion_main, Criterion};
use spritely_bench::{config, emit};
use spritely_harness::{artifacts, ServerIoParams};

fn bench(c: &mut Criterion) {
    emit(&artifacts::server_scaling());
    let mut g = c.benchmark_group("server_scaling");
    g.bench_function("eight_clients_pipelined", |b| {
        b.iter(|| artifacts::server_scaling_run(ServerIoParams::pipelined(), 8, false).makespan)
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench
}
criterion_main!(benches);
