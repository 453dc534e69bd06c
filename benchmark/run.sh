#!/usr/bin/env bash
# The one command of the repo benchmark (recorded in ../BENCHMARK.json):
# build the standalone crate in release mode without network, then hand every
# argument to it. See README.md for the arguments.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" 1>&2
GECKO_BENCH_DIR="$here" exec "$target/release/geckoftl-benchmark" "$@"
