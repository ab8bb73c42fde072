#!/usr/bin/env bash
# Builds ixbench, runs its unit tests, the quick pass over all six workloads,
# and the selfcheck (the same code measured twice must agree within the bounds
# of BENCHMARK.json; about four minutes).  Meant to be wired into CI by a later change.
set -euo pipefail
cd "$(dirname "$0")"
cargo test --release --offline --quiet
cargo build --release --offline --quiet
cargo run --release --offline --quiet -- run --quick
cargo run --release --offline --quiet -- selfcheck "$@"
