#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, release build, full test suite.
# Run from anywhere; operates on the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release"
cargo build --release

echo "== cargo test"
cargo test -q --workspace

if [ -w /dev/shm ] && [ "$(stat -f -c %T /dev/shm)" = tmpfs ]; then
    echo "== disk tier on tmpfs (no RWF_NOWAIT: every disk read is the executor's)"
    # An event loop reads the disk tier with preadv2(RWF_NOWAIT) and hands
    # whatever it cannot have at once to the executor. tmpfs answers that
    # flag with EOPNOTSUPP, so with the test roots there the tier's unit
    # tests and the disk-backed live tests run entirely through the
    # "anything else -> executor" arm.
    TMPDIR=/dev/shm cargo test -q -p baps-proxy --lib disk
    TMPDIR=/dev/shm cargo test -q -p baps-proxy --test live disk
    TMPDIR=/dev/shm cargo test -q -p baps-proxy --test storm
fi

echo "== benchmark package tests"
# The repo benchmark (benchmark/) is a package outside the workspace; its
# unit tests cover the generators, the comparison rules and the JSON it
# emits, and building it proves the proxy API it drives still exists.
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "== benchmark command smoke (correctness only, never timing)"
# The command BENCHMARK.json names, on the workload that reads, verifies
# and revalidates disk entries, for one measured second (the driver takes
# any --seconds in (0, 600]; setup dominates the ~15 s this costs). Judged
# on the exit code alone: bench_e2e exits non-zero on a wrong body byte, a
# failed operation, a changed inputs_hash, or tier tallies that differ
# between rounds. The numbers it prints are ignored.
benchmark/run.sh --workload disk-storm --seed 1 --seconds 1 --trace 0 >/dev/null
# The same, on the workload where 43 % of fetches are remote-browser hits
# relayed over the proxy's kept-alive upstream connections: a reply read
# off a desynchronised reused connection is a wrong body byte here.
benchmark/run.sh --workload peer-share --seed 1 --seconds 1 --trace 0 >/dev/null
# And on the workload whose bodies run to 1 MiB: the origin's event loops
# push them through WriteQueue's resume-after-EAGAIN path, where an offset
# bug is a wrong body byte.
benchmark/run.sh --workload heavy-tail --seed 1 --seconds 1 --trace 0 >/dev/null

# Each soak below prints its tallies; `soak` also holds them to the ones
# committed under scripts/chaos_expected/ (the soak's stdout minus its
# `wall` / `tails` timing lines), so "chaos tallies unchanged" is a diff,
# not a habit. A PR that means to change them regenerates the file and says
# why.
soak() {
    local expected="scripts/chaos_expected/$1.txt" out
    shift
    out=$(cargo run --release -q -p baps-bench --bin chaos_soak -- --seed 42 --requests 2000 "$@")
    printf '%s\n' "$out"
    printf '%s\n' "$out" | grep -v '^\(wall\|tails\) ' | diff "$expected" -
}

echo "== chaos soak (fixed seed)"
# Deterministic fault-injection soak: 2k requests under seed 42, run twice
# internally to prove determinism. Also gates the HEALTH SLO engine: the
# chaos-calibrated rule table must judge the completed schedule ok, and a
# post-schedule burst of GETs for nonexistent URLs must flip error_burn
# to critical deterministically. Exits nonzero with a reproduction line
# on any invariant violation.
soak plain

echo "== chaos soak, warm-restart mode (fixed seed)"
# Same deterministic soak with the persistent disk tier enabled and one
# full in-place proxy restart at mid-schedule: gates that the restarted
# proxy re-opens its store non-empty, serves disk hits afterwards
# (post-restart hit ratio > 0), keeps counters monotonic across the
# restart, leaves nothing in the disk root but `*.seg` segments and
# `counters.baseline`, and that both runs stay byte-exact and
# deterministic.
soak restart-warm --restart-warm

echo "== scenario soak: flash-crowd (fixed seed)"
# Sequential replay of the flash-crowd schedule (cold doc ramping to ~50%
# of traffic) with byte-exact content checks, bounded tails, and a
# 16-worker thundering-herd probe that must coalesce to exactly one
# origin fetch (coalesced_fetches == 15). Run twice internally to prove
# same-seed determinism.
soak flash-crowd --scenario flash-crowd

echo "== scenario soak: invalidation-storm (fixed seed)"
# Publisher-storm replay against the memory + disk tiers: every
# Invalidate op is one wire message (replica discards piggyback), no
# fetch may return stale bytes, and the unchanged half of the updates
# must come back via If-Digest revalidation. Determinism gated the same
# way.
soak invalidation-storm --scenario invalidation-storm

echo "== experiments record (experiments_full.txt is what the code prints)"
# EXPERIMENTS.md quotes experiments_full.txt, so the file is held to the
# code the way the soaks are held to scripts/chaos_expected/: every row of
# `experiments all` at full scale is seeded and must reproduce it byte for
# byte, bar the four wall-clock rows of the §6 table. A PR that means to
# move a number regenerates the file (`experiments all > experiments_full.txt`)
# and re-reads EXPERIMENTS.md against it.
untimed() { grep -vE '^(1|8|64|1024) KB ' "$@"; }
cargo run --release -q -p baps-bench --bin experiments -- all \
    | untimed | diff <(untimed experiments_full.txt) -

echo "== metrics smoke (METRICS exposition + recording-overhead gate)"
# Scrapes METRICS BAPS/1.0 over the wire under load and asserts the
# exposition parses, requests_total = served-by-tier + errors, and the
# tier histogram counts agree with the counters; then A/Bs recording
# on/off (median of paired rounds, one re-measure on a noisy first
# reading) and fails the build if always-on recording costs >3%.
cargo run --release -q -p baps-bench --bin metrics_smoke 8000 64

echo "== health smoke (HEALTH SLO engine + tail-exemplar resolution gate)"
# Starts a testbed whose origin stalls every reply 15 ms (deterministic
# tail latencies), scrapes HEALTH twice 2 s apart, and asserts the full
# default rule table evaluates, the windows move between scrapes, the
# METRICS exposition carries well-formed tail-bucket exemplars, and every
# exemplar trace id resolves through TRACE to a complete sampled span
# tree.
cargo run --release -q -p baps-bench --bin health_smoke

echo "== trace smoke (multi-hop span-tree reconstruction gate)"
# Builds a live deployment, forces peer and origin hits, scrapes the
# TRACE verb, and reassembles the sampled spans: at least one complete
# multi-hop tree (client fetch root over proxy spans over an
# origin-serve, and one over a peer-serve) must come back, or span
# propagation / sampling coherence has broken.
cargo run --release -q -p baps-bench --bin trace_report -- \
    --live --require-multihop

echo "== doc-rot guard (names of deleted things)"
# The second load harness, its committed output and the per-request client
# transport it alone selected are gone (DESIGN.md §8 names what replaced
# each measurement); nothing a reader or a build reaches may still point
# at them. CHANGES.md, ROADMAP.md and this script are history and exempt.
if git grep -nE 'BENCH_live|live_load|set_keep_alive|--sweep' -- \
    README.md DESIGN.md crates src examples .claude; then
    echo "doc rot: the lines above name something this repo deleted"
    exit 1
fi
# Direct-forward (PUSH / DELIVER, browser-to-browser sockets) is gone too:
# a remote-browser hit is a relayed PEERGET (DESIGN.md §8). Sources and
# docs only — tests under crates/*/tests may name the retired verbs to
# prove they are refused. The §6.2 protocol-level reproduction has a
# local binding of one of these names and is no part of the live runtime.
if git grep -nE 'direct_forward|deliver_to|await_delivery|PushOrder|DeliveryTimeout|baps_direct_pushes_total|peer-direct' -- \
    README.md DESIGN.md src examples .claude crates/*/src \
    ':!crates/crypto/src/anonymity.rs' ':!examples/secure_sharing.rs'; then
    echo "doc rot: the lines above name part of the deleted direct-forward mode"
    exit 1
fi

# Names earlier rounds deleted and an aside kept alive: the thread-mode
# pool (`WorkerPool`, `ConnRegistry`), the two-pass miss predicate
# (`may_block`, `needs_miss_executor`), the unlocked twin of the proxy's
# striped index (`ShardedIndex`) and the test bed's one-valued recorder
# option. CHANGES.md tells what each was.
if git grep -nE 'ShardedIndex|recorder_capacity|WorkerPool|ConnRegistry|may_block|needs_miss_executor' -- \
    README.md DESIGN.md src examples crates/*/src; then
    echo "doc rot: the lines above name something this repo deleted"
    exit 1
fi

# The disk tier is a segment log: no document has a file of its own
# (`<root>/<md5(url)>.doc`) or a path to compute (DESIGN.md §10). The
# pattern is the old file name's, not a bare `.doc`, which every
# `hit.doc.body` in the sources would match; `"doc"` survives in disk.rs
# as the extension `open` sweeps out of a pre-upgrade root.
if git grep -nE 'entry_path|>\.doc\b' -- README.md DESIGN.md crates/*/src; then
    echo "doc rot: the lines above name the deleted path-per-document disk layout"
    exit 1
fi

# The paper's tables and figures are rows of one `experiments` binary
# (`experiments --list`), not a binary each; `runall` and `calibrate` are
# `experiments all` and `experiments calibrate`.
if git grep -nE -e '--bin (fig[2-8]|table1|memhit|overhead|sharing|security|ablation|latency|hierarchy|runall|calibrate)' -- \
    README.md DESIGN.md EXPERIMENTS.md src examples .claude crates/*/src crates/*/Cargo.toml; then
    echo "doc rot: the lines above name an experiment binary this repo deleted"
    exit 1
fi

echo "== md5 kernel throughput (non-gating perf smoke)"
# One MD5 pass per hop is the largest CPU term of a disk hit and of a
# large origin fetch (DESIGN.md §5, "hash once per hop"), so a kernel regression should show
# in the log: the 8 KiB row is the median document, the 1 MiB row the
# heavy tail. Non-gating: a loopback host shared with CI is too noisy to
# fail a build on a throughput number.
cargo bench -q --offline -p baps-bench --bench md5 2>/dev/null \
    | grep -E '^bench md5/(8192|1048576) ' \
    || echo "md5 bench failed (non-gating)"

echo "== LRU throughput (non-gating perf smoke)"
# The simulator and every live tier share one `baps_cache::ByteLru`; its
# key and value are type parameters, so a slowdown of the simulator's
# `ByteLru<DocId>` from a change made for the live tiers should show in
# the log. 100 k touch-or-insert operations per iteration. Non-gating, for
# the md5 rows' reason.
cargo bench -q --offline -p baps-bench --bench lru 2>/dev/null \
    | grep -E '^bench (cache_policies/LRU|lru_variants/)' \
    || echo "lru bench failed (non-gating)"

echo "== Rust line totals (non-test / test)"
# The "net line count is reported per PR" number: run this at the parent
# commit and at the change and quote both in CHANGES.md. Test lines are
# every line of a file under a tests/ directory plus, in any other file,
# everything from its top-level `#[cfg(test)]` + `mod` pair to the end. (A
# top-level `#[cfg(test)]` on anything else — reactor.rs has a test-only
# helper function in its first hundred lines — starts nothing.)
find . \( -name target -o -name .git -o -name .bench_build \) -prune \
    -o -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { test = (FILENAME ~ /\/tests\//); attr = 0 }
    attr && !test && /^(pub )?mod / { test = 1; n[0]--; n[1]++ }
    { attr = /^#\[cfg\(test\)\]/; n[test]++ }
    END { printf "rust lines: non-test %d, test %d, total %d\n", n[0], n[1], n[0] + n[1] }'

echo "CI OK"
