#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, release build, full test suite.
# Run from anywhere; operates on the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== crate graph (the proxy links only what it runs)"
# DESIGN.md §3, "Simulator-only models": the live proxy runs one LRU and
# the exact index, both in baps-core, so its first-level workspace
# dependencies are exactly these; the simulator's index models, policies
# and tier model and baps-trace's generators and parsers stay out of it,
# and out of baps-core, which both sides link and which depends on nothing.
want='baps-core baps-crypto baps-obs parking_lot rand'
got=$(cargo tree --offline -p baps-proxy -e normal --depth 1 --prefix none \
    | tail -n +2 | awk '{ print $1 }' | sort -u | xargs)
if [ "$got" != "$want" ]; then
    echo "crate graph: baps-proxy depends on [$got], expected [$want]"
    exit 1
fi
got=$(cargo tree --offline -p baps-core -e normal --depth 1 --prefix none \
    | tail -n +2 | awk '{ print $1 }' | sort -u | xargs)
if [ -n "$got" ]; then
    echo "crate graph: baps-core depends on [$got], expected nothing"
    exit 1
fi
# What the proxy links holds only what it runs (DESIGN.md §3): §6.2's
# anonymity protocol and its ciphers live in baps-bench, not baps-crypto,
# and the simulator's configuration lives in baps-sim, not baps-core.
if git grep -nE '(struct|enum|fn) (XteaKey|SecureRelay|AnonymizingProxy|encrypt_message)\b|\bUnknownTransaction\b' -- crates/crypto/src \
    || git grep -nE '(struct|enum) (SystemConfig|Organization|IndexModel|Policy|RemoteHitCaching|BrowserSizing)\b' -- crates/core/src; then
    echo "crate boundary: the lines above define simulator-side code in a crate the proxy links"
    exit 1
fi

echo "== rustdoc -D warnings"
# A doc link to a private item, an ambiguous name or a crate this one no
# longer depends on is a warning; moving a type between crates breaks
# such links silently unless this fails.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

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
# push them through WriteQueue's resume-after-EAGAIN path, and so do the
# proxy's when it serves them from memory (one LRU over the whole 16 MiB
# budget keeps a 1 MiB body cached). An offset bug there is a wrong body
# byte.
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
# internally to prove determinism. Also gates the SLO engine: the
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
    ':!crates/bench/src/anonymity' ':!crates/bench/examples/secure_sharing.rs'; then
    echo "doc rot: the lines above name part of the deleted direct-forward mode"
    exit 1
fi

# Names earlier rounds deleted and an aside kept alive: the thread-mode
# pool (`WorkerPool`, `ConnRegistry`), the two-pass miss predicate
# (`may_block`, `needs_miss_executor`), the unlocked twin of the proxy's
# striped index (`ShardedIndex`), the test bed's one-valued recorder
# option and the tamper mode that forged a peer's `X-Watermark`
# (`ForgeWatermark`: a peer reply is a body alone, which the proxy checks
# against the watermark it signed). Where a request was served has one
# name, `baps_core::Served`, so its three retired spellings (`HitClass`,
# `baps_obs::Tier` and `TIER_NAMES`) stay gone, and so does the live
# proxy's test-only placement knob (`cache_peer_hits`). §5's cheap indexes
# are one `BatchedIndex` configured by `IndexModel` alone, so the three
# model types, their config structs and the delayed directory's flush
# interval stay gone, and so do the no-op serde shims (`serde_derive`).
# §6.2's anonymity protocol left baps-crypto for baps-bench and the
# simulator's configuration left baps-core for baps-sim, so neither old
# path may be named. CHANGES.md tells what each was.
if git grep -nE 'ShardedIndex|recorder_capacity|WorkerPool|ConnRegistry|may_block|needs_miss_executor|ForgeWatermark|HitClass|TIER_NAMES|baps_obs::Tier|cache_peer_hits|DelayedIndex|BloomSummaryIndex|CountingBloomIndex|UpdatePolicy|SummaryConfig|CountingConfig|Delayed \{[^}]*interval_ms|serde_derive|baps_crypto::anonymity|baps-crypto::anonymity|baps_core::SystemConfig' -- \
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

# The metrics and health smokes and `trace_report --require-multihop` were
# CI gates until their assertions became workspace tests (CHANGES.md lists
# which test holds each); the thread-mode `IoMode`, the locked
# `UpstreamPool` and the `STATS` verb went earlier; and the executor has
# run no miss since the disk tier moved onto the loops, so nothing may call
# it a miss executor. METRICS is the proxy's one report: the `HEALTH` verb,
# its parser and client call went, the executor's separate telemetry
# block and its busy-worker gauges joined or left `ReactorTelemetry`, and
# the executor's thread count is a constant, not an option. Tests under
# crates/*/tests are exempt: one sends `STATS` and `HEALTH` to prove they
# are refused.
if git grep -nE 'metrics_smoke|health_smoke|require-multihop|IoMode|UpstreamPool|STATS BAPS|[Mm]iss[- ]executor|HEALTH BAPS|proxy_health_raw|HealthReport::parse|PoolTelemetry|SaturationSnapshot|saturation\(\)|proxy_workers|worker_threads|baps_workers' -- \
    README.md DESIGN.md src examples .claude crates/*/src; then
    echo "doc rot: the lines above name something this repo deleted or renamed"
    exit 1
fi

# The proxy's rolling windows are one mutex-guarded deque of typed
# captures, taken by a timer on its first event loop (DESIGN.md §14): the
# lock-free ring, its flat capture layout and the thread that fed it are
# gone.
if git grep -nE 'WindowRing|WindowSchema|WindowSnapshot|push_hist|baps-proxy-windows|seqlock' -- \
    README.md DESIGN.md src examples .claude crates/*/src; then
    echo "doc rot: the lines above name the deleted window ring or its sampler thread"
    exit 1
fi

# The cache and index crates folded into baps-core, the simulator-only
# policies and tier model into baps-sim (DESIGN.md §3). Prometheus
# families such as `baps_cache_bytes` keep their names: the pattern wants
# a crate name, a path or a `::`.
if git grep -nE 'baps-cache|baps-index|baps_cache::|baps_index::|crates/(cache|index)' -- \
    README.md DESIGN.md src examples .claude crates/*/src crates/*/Cargo.toml Cargo.toml; then
    echo "doc rot: the lines above name a crate this repo folded into baps-core"
    exit 1
fi

# Every server is its event loops: loop 0 accepts and deals the
# connections (DESIGN.md §13). The acceptor thread, the accept-to-loop
# handoff it created and the span that timed that handoff are gone. The
# executor's queue wait (`baps_queue_wait_ms`, `SloSignal::QueueWaitP99Ms`,
# chaos_soak's `queue-wait p99`) is another wait and does not match.
if git grep -nE 'acceptor|accept-handoff|EventKind::QueueWait|"queue-wait"' -- \
    README.md DESIGN.md src examples .claude crates/*/src; then
    echo "doc rot: the lines above name the deleted acceptor thread or its handoff span"
    exit 1
fi

echo "== one memory budget (no split-budget helper outside shard.rs)"
# The proxy's memory tier is one LRU over the whole cache capacity, the
# model of the paper's §4 and of baps-sim (DESIGN.md §6b).
# The helpers that cut a budget into per-shard LRUs remain only for the
# benchmark's per-layer binary, so outside shard.rs the sources may name
# them only in lib.rs's re-export. Tests (crates/*/tests) are exempt.
if git grep -nwE 'auto_shards|MIN_SHARD_CAPACITY|MAX_SHARDS' -- crates/*/src src \
    ':!crates/proxy/src/shard.rs' | grep -vE '^crates/proxy/src/lib\.rs:[0-9]+:pub use shard::'; then
    echo "one memory budget: the lines above name a helper that splits the memory tier's budget"
    exit 1
fi

echo "== unsafe confinement (sys.rs, md5.rs and crc32c.rs only)"
# `unsafe` lives in three files (DESIGN.md §5): the syscall shim and the
# one call each into the CPUID-gated MD5 and CRC32C kernels. Lines that are
# comments are not code, so the pattern is `unsafe` with no `/` before it
# on its line.
if git grep -nE '^[^/]*\<unsafe\>' -- crates/*/src src \
    ':!crates/proxy/src/sys.rs' ':!crates/crypto/src/md5.rs' ':!crates/crypto/src/crc32c.rs'; then
    echo "unsafe confinement: the lines above are outside sys.rs, md5.rs and crc32c.rs"
    exit 1
fi

echo "== hash sites (where crates/proxy/src may hash a body)"
# A body is hashed where it is authored and where it is accepted
# (DESIGN.md §5): the origin's store (`store.rs` `authored`), the
# browser's §6.1 verify (`client.rs` `verify_traced`) and the proxy's one
# vouching function (`proxy.rs` `vouch`: a peer's reply against the
# watermark the proxy signed, its own copy on a browser's complaint).
# `disk.rs` `store` hashes too, but only tests and the benchmark's
# per-layer binary reach it: serving code hands the tier a digest
# (`store_hashed`). Outside comments and
# `#[cfg(test)]` code, a `document_digest(` or `verify_document(` anywhere
# else fails, and so does an `md5(` anywhere at all: a body's digest is
# `document_digest`, and plain MD5 is only its root node. Each
# hit is named with its enclosing function.
if ! git ls-files -z 'crates/proxy/src/*.rs' | xargs -0 awk '
    BEGIN { split("store.rs:authored client.rs:verify_traced proxy.rs:vouch disk.rs:store", a)
            for (i in a) allowed["crates/proxy/src/" a[i]] = 1 }
    FNR == 1 { test = 0; attr = 0; fun = "" }
    attr && /^(pub )?mod / { test = 1 }
    { attr = /^#\[cfg\(test\)\]/ }
    test || /^[ \t]*\/\// { next }
    /^[ \t]*(pub(\([a-z]+\))? )?fn [a-z_0-9]+/ {
        fun = $0; sub(/^[^f]*fn /, "", fun); sub(/[^a-z_0-9].*$/, "", fun) }
    /(^|[^a-z_])md5\(/ ||
    /document_digest\(|verify_document\(/ && !((FILENAME ":" fun) in allowed) {
        print FILENAME ":" FNR " (fn " fun "): " $0; bad = 1 }
    END { exit bad }'; then
    echo "hash sites: the lines above hash a body outside the four sites DESIGN.md §5 names, or by plain MD5"
    exit 1
fi

echo "== digest and crc32c kernel throughput (non-gating perf smoke)"
# The document digest is the largest CPU term of any path that moves a body
# (DESIGN.md §5, "hash where authored, and where accepted"), and a CRC32C
# is what the disk tier checks a read by, so a kernel regression shows in
# the log: the 8 KiB rows are the median document, `digest/1048576` the
# heavy tail, `crc32c/65536` the largest body a loop checks itself, each
# tagged with the kernel CPUID chose (`avx512` / `sse4.2` or `portable`).
# Non-gating: a loopback host shared with CI is too noisy to fail a build
# on a throughput number.
cargo bench -q --offline -p baps-bench --bench md5 2>/dev/null \
    | awk '/^(digest|crc32c) kernel: / { k[$1] = $3 }
           /^bench (digest\/(8192|1048576)|crc32c\/(8192|65536)) / {
               split($2, row, "/"); print $0 "  [" k[row[1]] "]"; n++ }
           END { exit n == 0 }' \
    || echo "md5 bench failed (non-gating)"

echo "== LRU throughput (non-gating perf smoke)"
# The simulator and every live tier share one `baps_core::ByteLru`; its
# key and value are type parameters, so a slowdown of the simulator's
# `ByteLru<DocId>` from a change made for the live tiers should show in
# the log. 100 k touch-or-insert operations per iteration. Non-gating, for
# the digest rows' reason.
cargo bench -q --offline -p baps-bench --bench lru 2>/dev/null \
    | grep -E '^bench (cache_policies/LRU|lru_variants/)' \
    || echo "lru bench failed (non-gating)"

echo "== recording overhead (non-gating A/B)"
# Always-on recording's cost: throughput with baps_obs recording on vs off
# over 80 interleaved ~40 ms slice pairs on one warm in-memory bed, printed
# beside the 3 % budget. Non-gating for the digest rows' reason: on a shared
# 2-core host the reading swings past the budget with no code change. The
# bench exits non-zero only when a fetch fails.
cargo bench -q --offline -p baps-bench --bench recording 2>/dev/null \
    | grep -E '^bench recording/' \
    || echo "recording bench failed (non-gating)"

echo "== Rust line totals (non-test / test)"
# The "net line count is reported per PR" number: run this at the parent
# commit and at the change and quote both in CHANGES.md. Test lines are
# every line of a file under a tests/ directory plus, in any other file,
# everything from its top-level `#[cfg(test)]` + `mod` pair to the end. (A
# top-level `#[cfg(test)]` on anything else — reactor.rs has a test-only
# helper function in its first hundred lines — starts nothing.)
# The proxy's compiled closure is the non-test lines of the workspace
# crates it links (proxy + core + crypto + obs), by the same rule.
lines() {
    find "$@" \( -name target -o -name .git -o -name .bench_build \) -prune \
        -o -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { test = (FILENAME ~ /\/tests\//); attr = 0 }
        attr && !test && /^(pub )?mod / { test = 1; n[0]--; n[1]++ }
        { attr = /^#\[cfg\(test\)\]/; n[test]++ }
        END { print n[0] + 0, n[1] + 0 }'
}
read -r non_test test < <(lines .)
echo "rust lines: non-test $non_test, test $test, total $((non_test + test))"
closure=0
for crate in proxy core crypto obs; do
    read -r n _ < <(lines "crates/$crate")
    printf 'proxy closure: %s %d\n' "$crate" "$n"
    closure=$((closure + n))
done
echo "proxy closure: non-test $closure (proxy + core + crypto + obs)"

echo "CI OK"
