#!/usr/bin/env bash
# Build the benchmark offline, run its tests, then the quick set and the
# quick A/A. Quick numbers are never reported; this only shows that every
# workload runs, checks its outputs and repeats its counts.
# (.github/workflows/ci.yml is outside the benchmark's paths; a later PR
# wires this script in.)
set -euo pipefail
cd "$(dirname "$0")"
cargo build --release --offline
cargo test --release --offline
bin="${CARGO_TARGET_DIR:-target}/release/nonctg-benchmark"
"$bin" --quick
"$bin" --aa --quick
