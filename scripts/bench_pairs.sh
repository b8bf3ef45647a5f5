#!/usr/bin/env bash
# Paired benchmark comparison of this checkout against a base revision.
#
#   scripts/bench_pairs.sh --base REV [--pairs N] [--workload W]... [--seconds S]
#   scripts/bench_pairs.sh --summarize RUNS
#
# The first form builds REV offline (the dependency shims are in tree) from
# `git archive` under target/bench_pairs/ — a plain directory, so nothing
# is registered in .git and a dirty checkout still compares — and then, for
# each workload (default: all four), runs
#
#   benchmark/run.sh --workload W --seed S --seconds S --trace 0
#
# N times on each side (default 5 pairs, 15 s), pair i on seed i for both,
# the base first in odd pairs and the change first in even ones. Every run
# leaves benchmark/Cargo.lock as it found it. It prints, per end-to-end
# metric of BENCHMARK.json, both sides' median and quartiles, how many
# pairs the change won, and whether the medians differ by more than the
# base's interquartile range; and it appends one JSON line per workload to
# BENCH_history.jsonl: commit, base, seeds, per-metric medians, quartiles
# and wins, and the host (nproc, CPU model, the digest and CRC32C kernel
# labels). Each run's result line goes to stderr as it finishes, so a
# metric can be read pair by pair. A failed or incorrect run stops the
# script.
#
# Medians compare only within one set: the same commit has read 30-70 %
# apart on the small-request workloads in two sittings, so a line's pairs
# judge its change and nothing else. To show which box and sitting a line
# came from, the script times a reference before the first pair and after
# the last, from this checkout's criterion benches: `digest/8192` (md5)
# and `lru_variants/flat_byte_lru` (lru), in ns per iteration, written
# into every line as "reference": {"before": ..., "after": ...}.
#
# The second form is the arithmetic alone, over a runs file: lines of
# `workload pair seed side json`, side `base` or `change`, json the last
# line run.sh printed. scripts/ci.sh checks it on a fixture.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    sed -n '3,4p' "$0" | sed 's/^# *//' >&2
    exit 2
}

# metric better-direction pairs, in BENCHMARK.json's end_to_end order.
directions() {
    grep -o '"name": "[a-z_0-9]*", "unit": "[^"]*", "better": "[a-z]*", "bound"' BENCHMARK.json \
        | sed 's/"name": "\([^"]*\)".*"better": "\([a-z]*\)".*/\1 \2/'
}

# summarize RUNS COMMIT BASE NPROC CPU MD5 CRC [REFERENCE]: the table on
# stdout, one `history <json>` line per workload after it.
summarize() {
    awk -v commit="$2" -v base="$3" -v nproc="$4" -v cpu="$5" -v md5="$6" -v crc="$7" -v ref="${8:-}" '
    FNR == NR { better[$1] = $2; metric[++nm] = $1; next }
    NF >= 5 {
        w = $1; p = $2 + 0
        if (!(w in seen)) { seen[w] = 1; workload[++nw] = w }
        if (p > pairs[w]) pairs[w] = p
        seed[w, p] = $3
        for (i = 1; i <= nm; i++) {
            pat = "\"" metric[i] "\": [{]\"value\": [-+0-9.eE]+"
            if (match($0, pat)) {
                v = substr($0, RSTART, RLENGTH); sub(/.*: /, "", v)
                val[w, $4, p, metric[i]] = v + 0
            }
        }
    }
    # Quantile q of x[1..n] by linear interpolation between order
    # statistics (x sorted in place).
    function quantile(x, n, q,    pos, lo) {
        pos = 1 + (n - 1) * q; lo = int(pos)
        return lo >= n ? x[n] : x[lo] + (pos - lo) * (x[lo + 1] - x[lo])
    }
    function sort(x, n,    i, j, t) {
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && x[j - 1] > x[j]; j--) { t = x[j]; x[j] = x[j - 1]; x[j - 1] = t }
    }
    function stats(side, w, m, n, out,    x, p) {
        for (p = 1; p <= n; p++) x[p] = val[w, side, p, m]
        sort(x, n)
        out["q1"] = quantile(x, n, 0.25); out["median"] = quantile(x, n, 0.5); out["q3"] = quantile(x, n, 0.75)
    }
    function num(v) { return sprintf("%.6g", v) }
    function side_json(s) { return "{\"median\": " num(s["median"]) ", \"q1\": " num(s["q1"]) ", \"q3\": " num(s["q3"]) "}" }
    END {
        for (k = 1; k <= nw; k++) {
            w = workload[k]; n = pairs[w]
            seeds = ""
            for (p = 1; p <= n; p++) seeds = seeds (p > 1 ? ", " : "") seed[w, p]
            printf "== %s: %d pairs (seeds %s), base %s vs change %s\n", w, n, seeds, base, commit
            printf "%-16s %28s %28s %6s  %s\n", "metric", "base median [q1, q3]", "change median [q1, q3]", "wins", "medians apart by more than base IQR"
            json = ""
            for (i = 1; i <= nm; i++) {
                m = metric[i]
                stats("base", w, m, n, b); stats("change", w, m, n, c)
                wins = 0
                for (p = 1; p <= n; p++) {
                    d = val[w, "change", p, m] - val[w, "base", p, m]
                    if (better[m] == "higher" ? (d > 0) : (d < 0)) wins++
                }
                d = c["median"] - b["median"]
                beyond = "no"
                if (d * d > (b["q3"] - b["q1"]) ^ 2 && d != 0)
                    beyond = (better[m] == "higher" ? (d > 0) : (d < 0)) ? "better" : "worse"
                printf "%-16s %10s [%7s, %7s] %10s [%7s, %7s] %3d/%-2d  %s\n", m,
                    num(b["median"]), num(b["q1"]), num(b["q3"]),
                    num(c["median"]), num(c["q1"]), num(c["q3"]), wins, n, beyond
                json = json (i > 1 ? ", " : "") "\"" m "\": {\"better\": \"" better[m] "\", \"base\": " side_json(b) \
                    ", \"change\": " side_json(c) ", \"wins\": " wins ", \"beyond_base_iqr\": \"" beyond "\"}"
            }
            history[k] = "{\"commit\": \"" commit "\", \"base\": \"" base "\", \"workload\": \"" w "\", \"pairs\": " n \
                ", \"seeds\": [" seeds "], \"host\": {\"nproc\": " nproc ", \"cpu\": \"" cpu "\", \"md5_kernel\": \"" md5 \
                "\", \"crc32c_kernel\": \"" crc "\"}" (ref == "" ? "" : ", \"reference\": " ref) \
                ", \"metrics\": {" json "}}"
        }
        for (k = 1; k <= nw; k++) print "history " history[k]
    }' <(directions) "$1"
}

base="" pairs=5 seconds=15 workloads=() summarize_only=""
while [ $# -gt 0 ]; do
    case "$1" in
        --base) base="$2"; shift 2 ;;
        --pairs) pairs="$2"; shift 2 ;;
        --workload) workloads+=("$2"); shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --summarize) summarize_only="$2"; shift 2 ;;
        *) usage ;;
    esac
done

if [ -n "$summarize_only" ]; then
    summarize "$summarize_only" fixture fixture 0 fixture fixture fixture | sed 's/^history //'
    exit 0
fi
[ -n "$base" ] || usage
[ ${#workloads[@]} -gt 0 ] || workloads=(hot-small peer-share disk-storm heavy-tail)

base_rev=$(git rev-parse --short "$base^{commit}")
commit=$(git describe --always --dirty --exclude '*')
base_dir="target/bench_pairs/base-$base_rev"
if [ ! -d "$base_dir" ]; then
    mkdir -p "$base_dir.tmp"
    git archive "$base_rev" | tar -x -C "$base_dir.tmp"
    mv "$base_dir.tmp" "$base_dir"
fi

# reference: the box's speed now, as a JSON object of ns per iteration.
reference() {
    local digest lru
    digest=$(cargo bench -q --offline -p baps-bench --bench md5 2>/dev/null \
        | awk '$2 == "digest/8192" { print $3 }')
    lru=$(cargo bench -q --offline -p baps-bench --bench lru 2>/dev/null \
        | awk '$2 == "lru_variants/flat_byte_lru" { print $3 }')
    printf '{"digest_8192_ns": %s, "flat_byte_lru_ns": %s}' "${digest:-null}" "${lru:-null}"
}

# run SIDE DIR WORKLOAD SEED: one benchmark run; its result line on stdout.
run() {
    local lock="$2/benchmark/Cargo.lock" saved out
    saved=$(mktemp)
    cp "$lock" "$saved"
    out=$(cd "$2" && CARGO_TARGET_DIR="$PWD/target" benchmark/run.sh \
        --workload "$3" --seed "$4" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1) || true
    cp "$saved" "$lock"
    rm -f "$saved"
    case "$out" in
        *'"correct": true'*) printf '%s\n' "$out" ;;
        *) echo "bench_pairs: $1 run of $3 (seed $4) failed: $out" >&2; exit 1 ;;
    esac
}

runs=$(mktemp)
trap 'rm -f "$runs"' EXIT
echo "bench_pairs: timing the reference" >&2
before=$(reference)
for w in "${workloads[@]}"; do
    for ((p = 1; p <= pairs; p++)); do
        sides=(base change)
        [ $((p % 2)) -eq 0 ] && sides=(change base)
        for side in "${sides[@]}"; do
            dir=$PWD
            [ "$side" = base ] && dir=$base_dir
            echo "bench_pairs: $w pair $p/$pairs $side" >&2
            result=$(run "$side" "$dir" "$w" "$p")
            printf '%s %d %d %s %s\n' "$w" "$p" "$p" "$side" "$result" >>"$runs"
            echo "bench_pairs: $w pair $p/$pairs $side $result" >&2
        done
    done
done

after=$(reference)
echo "bench_pairs: reference before $before, after $after" >&2
cpu=$(awk -F': ' '/^model name/ { print $2; exit }' /proc/cpuinfo | sed 's/["\\]//g')
md5=portable crc=portable
grep -qw avx512f /proc/cpuinfo && md5=avx512
grep -qw sse4_2 /proc/cpuinfo && crc=sse4.2
summarize "$runs" "$commit" "$base_rev" "$(nproc)" "$cpu" "$md5" "$crc" \
    "{\"before\": $before, \"after\": $after}" | while IFS= read -r line; do
    case "$line" in
        "history "*) printf '%s\n' "${line#history }" >>BENCH_history.jsonl ;;
        *) printf '%s\n' "$line" ;;
    esac
done
echo "bench_pairs: appended ${#workloads[@]} line(s) to BENCH_history.jsonl" >&2
