#!/usr/bin/env bash
# Tier-1 gate: everything a change must pass before it lands.
# Every gate with a deterministic verdict is a `cargo test`; the one
# wall-clock gate (sim_speed_smoke) needs a release build and runs last.
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

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> sim-core smoke run (>= 1.5x the recorded events/sec, release build)"
cargo run --release --quiet --example sim_speed_smoke

echo "==> OK"
