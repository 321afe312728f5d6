#!/usr/bin/env bash
# A/B two builds of the e2e benchmark on one workload.
#
#   scripts/ab_e2e.sh PARENT_BIN CHANGE_BIN WORKLOAD [PAIRS]
#                     [--seed N] [--seconds S] [--max-rounds R]
#
# Runs PAIRS (default 4) adjacent pairs, alternating which side goes first,
# and prints for every end-to-end metric each side's median and quartiles,
# the change/parent ratio of each pair and how many pairs the change won.
# The sandbox drifts by 15-25 % over minutes, so a timing is judged by the
# ratios of adjacent runs, never by one side's runs alone. Wire and input
# digests, attempted per round and failed are compared as well: they must
# not differ.
#
# --max-rounds R stops each run after R rounds instead of after --seconds:
# peak_rss_mib is the process's high-water mark, the harness keeps about
# 2.7 KiB of its own per round, and a faster build completes more rounds in
# the same time, so resident memory is only comparable at equal round counts.
#
# Build each commit's binary into its own target directory first:
#   CARGO_TARGET_DIR=/root/scratch/parent_bench cargo build --release --offline \
#       --manifest-path e2ebench/Cargo.toml     # in a clone of the parent
set -euo pipefail

usage() { sed -n '2,6p' "$0" >&2; exit 2; }
[ $# -ge 3 ] || usage
parent=$1 change=$2 workload=$3
shift 3
pairs=4 seed=11 seconds=15 max_rounds=
if [ $# -gt 0 ] && [[ $1 != --* ]]; then pairs=$1; shift; fi
while [ $# -gt 0 ]; do
    case $1 in
        --seed) seed=$2 ;;
        --seconds) seconds=$2 ;;
        --max-rounds) max_rounds=$2 ;;
        *) usage ;;
    esac
    shift 2
done

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
# Resident memory counts the pages of the binary that are mapped, and a
# fault maps its neighbours too when the page cache holds them: a binary
# built a while ago reads up to 0.8 MiB lower than one just written. Put
# both wholly in the cache first.
cat "$parent" "$change" > /dev/null
run() { # side binary pair
    local extra=()
    [ -n "$max_rounds" ] && extra=(--max-rounds "$max_rounds")
    # The detail document is the stdout line carrying the wire digest.
    "$2" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 --detail \
        "${extra[@]}" 2> "$out/stderr" | grep '"wire_digest"' > "$out/$1.$3.json" ||
        { cat "$out/stderr" >&2; echo "$1 run failed" >&2; exit 1; }
}
for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then
        run parent "$parent" "$i"; run change "$change" "$i"
    else
        run change "$change" "$i"; run parent "$parent" "$i"
    fi
    echo "pair $((i + 1))/$pairs done" >&2
done

python3 - "$out" "$pairs" "$workload" "$seed" <<'PY'
import json, statistics, sys
out, pairs, workload, seed = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
load = lambda side, i: json.load(open(f"{out}/{side}.{i}.json"))
runs = {side: [load(side, i) for i in range(pairs)] for side in ("parent", "change")}

def quartiles(v):
    v = sorted(v)
    if len(v) < 2:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4, method="inclusive")
    return q[0], statistics.median(v), q[2]

print(f"{workload} seed {seed}: {pairs} alternating pair(s); "
      f"rounds parent {[r['rounds'] for r in runs['parent']]} "
      f"change {[r['rounds'] for r in runs['change']]}")
print(f"{'metric':<22}{'parent q1/med/q3':>34}{'change q1/med/q3':>34}  ratio  won  per-pair ratios")
for name, spec in runs["parent"][0]["end_to_end"].items():
    side = {s: [r["end_to_end"][name]["median"] for r in runs[s]] for s in runs}
    better = (lambda c, p: c < p) if spec["better"] == "lower" else (lambda c, p: c > p)
    won = sum(better(c, p) for p, c in zip(side["parent"], side["change"]))
    ratios = [c / p if p else float("nan") for p, c in zip(side["parent"], side["change"])]
    fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
    pq, cq = quartiles(side["parent"]), quartiles(side["change"])
    ratio = cq[1] / pq[1] if pq[1] else float("nan")
    print(f"{name:<22}{fmt(pq):>34}{fmt(cq):>34}  {ratio:5.3f}  {won}/{pairs}  "
          + " ".join(f"{r:.3f}" for r in ratios))

def fixed(r):
    return (r["wire_digest"], r["input_digest"], r["wire_bytes_per_round"], r["updates_per_round"],
            r["nacks_per_round"], r["plis_per_round"], r["attempted"] // r["rounds"], r["failed"])
kinds = {s: {fixed(r) for r in runs[s]} for s in runs}
same = kinds["parent"] == kinds["change"] and len(kinds["parent"]) == 1
print("must-not-move (wire/input digest, wire bytes, updates, nacks, plis, attempted per round, failed):",
      "identical" if same else f"DIFFER parent={kinds['parent']} change={kinds['change']}")
sys.exit(0 if same else 1)
PY
