#!/usr/bin/env bash
# A/B two revisions on one benchmark workload: export each with
# `git archive` into a temporary directory, build `perfbench` in each,
# then run alternating pairs (one seed per pair, the side that goes first
# alternating) with BENCHMARK.json's command and run_seconds. Prints,
# per end-to-end metric, each side's median and quartiles, the pairs the
# change won, and whether the median gain exceeds the parent's
# interquartile range; then every pair's values, and failed/attempted
# events per side. After the pairs it runs each side three times more,
# traced (`--seconds 1 --trace 1`, first seed), in the order parent,
# change, change, parent, parent, change, and prints every per-layer
# metric of BENCHMARK.json as each side's median with its min and max:
# one traced second spreads too widely for a delta between two runs to
# mean anything. Any arguments after the first five go to every perfbench
# run of both sides, timed and traced alike. Writes nothing in the
# checkout. Run nothing else on the machine while it times.
#
#   bash scripts/bench_ab.sh <parent-rev> <change-rev> <workload> <pairs> <first-seed> [perfbench-arg...]
#
# e.g. `bash scripts/bench_ab.sh HEAD~1 HEAD enterprise-churn 10 21` takes
# about 20 × 47 s, six traced runs of a few seconds, plus two builds;
# appending `--scenario-seed 1` runs the same pairs on the churn site of
# scenario seed 1 instead of the workload's default site.
set -euo pipefail

USAGE="usage: $0 <parent-rev> <change-rev> <workload> <pairs> <first-seed> [perfbench-arg...]"
[ "$#" -ge 5 ] || { echo "$USAGE" >&2; exit 2; }
WORKLOAD="$3"
PAIRS="$4"
FIRST_SEED="$5"
EXTRA=("${@:6}")
[[ "$PAIRS" =~ ^[1-9][0-9]*$ ]] || { echo "pairs must be a positive whole number" >&2; exit 2; }
[[ "$FIRST_SEED" =~ ^[0-9]+$ ]] || { echo "first-seed must be a whole number" >&2; exit 2; }

REPO="$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
PARENT="$(git -C "$REPO" rev-parse --verify "$1^{commit}")"
CHANGE="$(git -C "$REPO" rev-parse --verify "$2^{commit}")"

WORK="$(mktemp -d)"
cleanup() {
    # shellcheck disable=SC2046
    kill $(jobs -p) 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

# Each side builds into its own tree, whatever the caller's environment.
unset CARGO_TARGET_DIR
for side in parent change; do
    rev="$PARENT"
    [ "$side" = change ] && rev="$CHANGE"
    mkdir -p "$WORK/$side" "$WORK/runs"
    git -C "$REPO" archive "$rev" | tar -x -C "$WORK/$side"
    echo "building perfbench for $side ($rev)" >&2
    cargo build --release --offline --quiet --manifest-path "$WORK/$side/perfbench/Cargo.toml"
done

# The command and driving time come from the change's BENCHMARK.json.
field() {
    python3 -c 'import json, sys; v = json.load(open(sys.argv[1]))[sys.argv[2]]
print("\n".join(v) if isinstance(v, list) else v)' "$WORK/change/BENCHMARK.json" "$1"
}
mapfile -t COMMAND < <(field command)
SECONDS_PER_RUN="$(field run_seconds)"

# One run: the result line goes to runs/<side>-<name>.json, or the file
# stays absent when the run gives none.
#   run <side> <name> <seed> <seconds> <trace>
run() {
    local side="$1" name="$2" seed="$3" seconds="$4" trace="$5" out
    out="$(cd "$WORK/$side" && "${COMMAND[@]}" --workload "$WORKLOAD" --seed "$seed" \
        --seconds "$seconds" --trace "$trace" "${EXTRA[@]}" \
        2>"$WORK/runs/$side-$name.err" | tail -n 1)" || true
    case "$out" in
        "{"*) printf '%s\n' "$out" > "$WORK/runs/$side-$name.json" ;;
        *) echo "  $side run $name gave no result line; stderr:" >&2
           tail -n 5 "$WORK/runs/$side-$name.err" >&2 ;;
    esac
}

for ((k = 0; k < PAIRS; k++)); do
    seed=$((FIRST_SEED + k))
    echo "pair $((k + 1))/$PAIRS: $WORKLOAD seed $seed, ${SECONDS_PER_RUN} s per run" >&2
    if ((k % 2 == 0)); then
        run parent "$seed" "$seed" "$SECONDS_PER_RUN" 0
        run change "$seed" "$seed" "$SECONDS_PER_RUN" 0
    else
        run change "$seed" "$seed" "$SECONDS_PER_RUN" 0
        run parent "$seed" "$seed" "$SECONDS_PER_RUN" 0
    fi
done

echo "traced runs: $WORKLOAD seed $FIRST_SEED, 1 s per run, 3 per side" >&2
declare -A TRACED=([parent]=0 [change]=0)
for side in parent change change parent parent change; do
    TRACED[$side]=$((TRACED[$side] + 1))
    run "$side" "trace-${TRACED[$side]}" "$FIRST_SEED" 1 1
done

python3 - "$WORK/change/BENCHMARK.json" "$WORK/runs" "$PAIRS" "$FIRST_SEED" \
    "$PARENT" "$CHANGE" "$WORKLOAD" "${EXTRA[*]}" <<'EOF'
import json, os, statistics, sys

bench_path, runs, pairs, first_seed, parent, change, workload, extra = sys.argv[1:]
bench = json.load(open(bench_path))
seeds = range(int(first_seed), int(first_seed) + int(pairs))

def load(side, name):
    path = os.path.join(runs, f"{side}-{name}.json")
    return json.load(open(path)) if os.path.exists(path) else None

results = {side: {s: load(side, s) for s in seeds} for side in ("parent", "change")}

def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3

def fmt(v):
    return f"{v:.6g}"

print(f"{workload}: parent {parent[:12]} vs change {change[:12]}, "
      f"seeds {seeds.start}-{seeds.stop - 1}, {bench['run_seconds']} s per run"
      + (f", perfbench args: {extra}" if extra else ""))
print(f"{'metric':<17} {'parent median (q1-q3)':<36} {'change median (q1-q3)':<36} "
      f"{'d median':>9} {'won':>14}  gain > parent IQR")
for metric in bench["end_to_end"]:
    name, higher = metric["name"], metric["better"] == "higher"
    both = [(results["parent"][s], results["change"][s]) for s in seeds]
    both = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
            for p, c in both if p and c and name in p["metrics"] and name in c["metrics"]]
    if not both:
        print(f"{name:<17} no complete pairs")
        continue
    p_vals, c_vals = [p for p, _ in both], [c for _, c in both]
    pq1, pmed, pq3 = quartiles(p_vals)
    cq1, cmed, cq3 = quartiles(c_vals)
    won = sum(1 for p, c in both if (c > p if higher else c < p))
    tied = sum(1 for p, c in both if c == p)
    gain = (cmed - pmed) if higher else (pmed - cmed)
    rel = f"{(cmed - pmed) / pmed * 100:+.1f}%" if pmed else "n/a"
    won_cell = f"{won}/{len(both)}" + (f" ({tied} tied)" if tied else "")
    print(f"{name:<17} {fmt(pmed) + ' (' + fmt(pq1) + '-' + fmt(pq3) + ')':<36} "
          f"{fmt(cmed) + ' (' + fmt(cq1) + '-' + fmt(cq3) + ')':<36} {rel:>9} {won_cell:>14}  "
          f"{'yes' if gain > pq3 - pq1 else 'no'} (gain {fmt(gain)}, IQR {fmt(pq3 - pq1)})")

def value(result, name):
    return fmt(result["metrics"][name]["value"]) if result and name in result["metrics"] else "-"

print()
print("per pair, parent / change:")
names = [m["name"] for m in bench["end_to_end"]]
print((f"{'seed':<5} {'first':<7} " + " ".join(f"{n:<25}" for n in names)).rstrip())
for k, s in enumerate(seeds):
    p, c = results["parent"][s], results["change"][s]
    cells = " ".join(f"{value(p, n) + ' / ' + value(c, n):<25}" for n in names)
    print(f"{s:<5} {'parent' if k % 2 == 0 else 'change':<7} {cells}".rstrip())

print()
for side in ("parent", "change"):
    got = [r for r in results[side].values() if r]
    attempted = sum(r["attempted"] for r in got)
    failed = sum(r["failed"] for r in got)
    incorrect = sum(1 for r in got if not r["correct"])
    print(f"{side}: failed/attempted {failed}/{attempted}; "
          f"{len(got)}/{len(seeds)} runs gave a result line, {incorrect} not correct")

print()
TRACED = 3
traced = {side: [r for r in (load(side, f"trace-{k}") for k in range(1, TRACED + 1)) if r]
          for side in ("parent", "change")}
print(f"traced layers (seed {seeds.start}, 1 s per run, {TRACED} alternating runs per side), "
      "median [min-max]:")
print(f"{'metric':<34} {'parent':<32} {'change':<32}")
for metric in bench["per_layer"]:
    name = metric["name"]
    cells = []
    for side in ("parent", "change"):
        vals = [r["metrics"][name]["value"] for r in traced[side] if name in r["metrics"]]
        cells.append(f"{fmt(statistics.median(vals))} [{fmt(min(vals))}-{fmt(max(vals))}]"
                     if vals else "-")
    print(f"{name:<34} {cells[0]:<32} {cells[1]:<32} "
          f"({metric['unit']}, {metric['better']} is better)")
for side in ("parent", "change"):
    got = traced[side]
    print(f"{side} traced runs: {len(got)}/{TRACED} gave a result line; failed/attempted "
          f"{sum(r['failed'] for r in got)}/{sum(r['attempted'] for r in got)}, "
          f"{sum(1 for r in got if not r['correct'])} not correct")
EOF
