#!/usr/bin/env bash
# AddressSanitizer over the crates that hold `unsafe`: the datatype
# kernels and the streamed-rendezvous handoff in core. Runs their library
# and integration tests on nightly Rust with the oracle checks on; any
# out-of-bounds access, use-after-free or leak fails the run.
#
#   ci/sanitize.sh            # from anywhere inside the repository
#
# Needs only a nightly toolchain (no Miri, no rust-src). The sanitizer
# applies to target artifacts only, so `--target` is explicit; the build
# goes to its own target directory so it never evicts the normal one.
set -euo pipefail
cd "$(dirname "$0")/.."

host="$(rustc +nightly -vV | sed -n 's/^host: //p')"
export RUSTFLAGS="-Zsanitizer=address"
export RUSTDOCFLAGS="-Zsanitizer=address"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/sanitize}"
export NONCTG_ORACLE=1

cargo +nightly test --offline --target "$host" \
    -p nonctg-datatype -p nonctg-core --lib --tests
