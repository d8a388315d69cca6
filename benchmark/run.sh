#!/usr/bin/env bash
# The command BENCHMARK.json names. `cargo run` would build only the one
# binary it runs; the suite driver starts the traced binary too, so build
# the whole package, then hand over to the driver with the arguments as
# given (see README.md for them).
set -euo pipefail
here="$(dirname "$0")"
cargo build --release --offline --manifest-path "$here/Cargo.toml"
exec "${CARGO_TARGET_DIR:-$here/target}/release/mqx-benchmark" "$@"
