#!/usr/bin/env bash
# Builds the benchmark package from source (offline) and runs bench_e2e.
#
#   benchmark/run.sh                                   all four workloads -> benchmark/out/result.json
#   benchmark/run.sh --trace 1                         the traced run      -> result-trace.json, trace-*.jsonl
#   benchmark/run.sh --selfcheck                       default set twice, compared by the benchmark's own bounds
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                      one workload; last stdout line is the driver's JSON result
#
# Run it from anywhere; build products go to $CARGO_TARGET_DIR (default:
# the repo's target/), results to benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/../target}"
build() { cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" --bin "$1" >&2; }
build bench_e2e
build bench_compare
# The per-layer binary names wide layer APIs; if a later change to them
# breaks it, end-to-end runs still work and a traced run reports its
# metrics as 0 (bench_e2e warns).
build bench_layers || echo "run.sh: bench_layers did not build; per-layer timings will read 0" >&2
exec "$target/release/bench_e2e" --out "$here/out" "$@"
