#!/usr/bin/env bash
# Tier-1 gate: everything a change must pass before it lands.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo test perfbench (the benchmark must build against the harness)"
cargo test --offline -q --manifest-path perfbench/Cargo.toml

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy -p spritely-trace -- -D warnings"
cargo clippy -p spritely-trace --all-targets -- -D warnings

echo "==> cargo clippy -p spritely-blockdev -- -D warnings"
cargo clippy -p spritely-blockdev --all-targets -- -D warnings

echo "==> cargo clippy -p spritely-proto -p spritely-rpcnet -- -D warnings"
cargo clippy -p spritely-proto -p spritely-rpcnet --all-targets -- -D warnings

echo "==> cargo clippy -p spritely-sim -- -D warnings"
cargo clippy -p spritely-sim --all-targets -- -D warnings

echo "==> cargo clippy -p spritely-metrics -- -D warnings"
cargo clippy -p spritely-metrics --all-targets -- -D warnings

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> traced Andrew run (invariant checker gate)"
cargo run --release --quiet --example traced_andrew

echo "==> server I/O pipeline smoke run (pipelined must beat paper)"
cargo run --release --quiet --example server_io_smoke

echo "==> transport pipeline smoke run (pipelined must beat paper)"
cargo run --release --quiet --example transport_smoke

echo "==> chaos smoke run (faulted runs must converge to fault-free contents)"
cargo run --release --quiet --example chaos_smoke

echo "==> delegation smoke run (open churn must shed messages, trace must stay clean)"
cargo run --release --quiet --example delegation_smoke

echo "==> sim-core smoke run (>= 1.5x pre-PR events/sec, cancelled sleeps leave no timers)"
cargo run --release --quiet --example sim_speed_smoke

echo "==> latency profiler smoke run (phase accounting must be exact, >= 99% attributed)"
cargo run --release --quiet --example profile_smoke

echo "==> shard smoke run (paper mode inert, deterministic, >= 1.5x at 8 shards, chaos converges)"
cargo run --release --quiet --example shard_smoke

echo "==> snapshot regression gate (fresh Andrew profile vs baselines/)"
cargo run --release --quiet --bin spritely -- profile andrew > /dev/null
cargo run --release --quiet --bin spritely -- compare \
    baselines/profile_andrew_snfs.json artifacts/profile_andrew_snfs.json

echo "==> OK"
