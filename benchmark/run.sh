#!/usr/bin/env bash
# The one command of the repo benchmark: builds the harness (release,
# same profile as the root workspace) and hands it the arguments.
#
#   benchmark/run.sh                         every workload, every end-to-end metric
#   benchmark/run.sh --trace                 ... then the traced run with the per-layer metrics
#   benchmark/run.sh --smoke                 shrunken sizes, all checks on, a few seconds
#   benchmark/run.sh --check-repeat          the set twice, compared against the bounds
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                            one workload; last stdout line is the result object
#
# Run from the root of the checkout. See benchmark/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/ntg-benchmark" "$@"
