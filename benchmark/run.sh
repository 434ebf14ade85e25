#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it with the given
# arguments. Run from the repository root:
#
#   bash benchmark/run.sh run --all --seed 1            # every workload, end-to-end metrics
#   bash benchmark/run.sh run --all --seed 1 --trace    # the traced run: per-layer metrics
#   bash benchmark/run.sh run --all --smoke             # CI-sized, < 30 s
#   bash benchmark/run.sh compare A.json B.json
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   # driver form
#
# Build output goes to $CARGO_TARGET_DIR when the caller sets it, else to
# benchmark/target; nothing is written outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/pim-benchmark" "$@"
