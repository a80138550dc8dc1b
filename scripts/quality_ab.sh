#!/usr/bin/env bash
# Compare what two revisions decide, site by site: export each with
# `git archive` into a temporary directory, build and run its `site_sweep`
# binary (325 seeded enterprise and lab sites, one WOLT solve each), then
# print, for the WiFi objective and for the end-to-end aggregate, the
# median and mean relative change from parent to change, how many sites
# keep their association (per preset), and every site that loses more
# than 0.1% on either objective, with both sides' Phase II iteration
# counts. Also prints each side's median iterations and best-of-3 solve
# time per site size; the two sweeps run one after the other, so those
# timings show large effects only (two runs of one commit on a shared
# 2-vCPU host read up to 1.9x apart on the smallest sites). Writes nothing
# in the checkout. Both revisions must contain
# crates/bench/src/bin/site_sweep.rs.
#
#   bash scripts/quality_ab.sh <parent-rev> <change-rev>
set -euo pipefail

USAGE="usage: $0 <parent-rev> <change-rev>"
[ "$#" -eq 2 ] || { echo "$USAGE" >&2; exit 2; }

REPO="$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
PARENT="$(git -C "$REPO" rev-parse --verify "$1^{commit}")"
CHANGE="$(git -C "$REPO" rev-parse --verify "$2^{commit}")"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# Each side builds into its own tree, whatever the caller's environment.
unset CARGO_TARGET_DIR
for side in parent change; do
    rev="$PARENT"
    [ "$side" = change ] && rev="$CHANGE"
    mkdir -p "$WORK/$side"
    git -C "$REPO" archive "$rev" | tar -x -C "$WORK/$side"
    [ -f "$WORK/$side/crates/bench/src/bin/site_sweep.rs" ] || {
        echo "$side ($rev) has no site_sweep binary" >&2
        exit 2
    }
    echo "building site_sweep for $side ($rev)" >&2
    cargo build --release --offline --quiet --manifest-path "$WORK/$side/Cargo.toml" \
        -p wolt-bench --bin site_sweep
done
for side in parent change; do
    echo "sweeping $side" >&2
    "$WORK/$side/target/release/site_sweep" > "$WORK/$side.tsv"
done

python3 - "$WORK/parent.tsv" "$WORK/change.tsv" "$PARENT" "$CHANGE" <<'EOF'
import csv, statistics, sys
from collections import defaultdict

parent_path, change_path, parent, change = sys.argv[1:]

def load(path):
    with open(path) as f:
        return {(r["site"], int(r["users"]), int(r["seed"])): r
                for r in csv.DictReader(f, delimiter="\t")}

p, c = load(parent_path), load(change_path)
if p.keys() != c.keys():
    sys.exit("the two sweeps cover different sites")
sites = list(p)
LOSS = 0.1  # percent

def rel(site, column):
    a, b = float(p[site][column]), float(c[site][column])
    return (b - a) / a * 100 if a else 0.0

print(f"site sweep: parent {parent[:12]} vs change {change[:12]}, {len(sites)} sites")
print()
print(f"{'objective':<15} {'median change':>14} {'mean change':>12} "
      f"{'sites lost > 0.1%':>18} {'sites gained > 0.1%':>20}  worst / best")
for column in ("wifi_objective", "aggregate_mbps"):
    changes = [rel(s, column) for s in sites]
    lost = sum(1 for d in changes if d < -LOSS)
    gained = sum(1 for d in changes if d > LOSS)
    print(f"{column:<15} {statistics.median(changes):>+13.4f}% {statistics.mean(changes):>+11.4f}% "
          f"{lost:>18} {gained:>20}  {min(changes):+.4f}% / {max(changes):+.4f}%")

print()
for preset in sorted({s[0] for s in sites}):
    of = [s for s in sites if s[0] == preset]
    kept = sum(1 for s in of if p[s]["association_crc"] == c[s]["association_crc"])
    print(f"{preset}: {kept}/{len(of)} sites keep their association")

print()
print(f"sites losing more than {LOSS}% on either objective (parent -> change iterations):")
losers = [s for s in sites if rel(s, "wifi_objective") < -LOSS or rel(s, "aggregate_mbps") < -LOSS]
for s in losers:
    print(f"  {s[0]} {s[1]} users seed {s[2]}: wifi {rel(s, 'wifi_objective'):+.4f}%, "
          f"aggregate {rel(s, 'aggregate_mbps'):+.4f}%, "
          f"iterations {p[s]['iterations']} -> {c[s]['iterations']}")
if not losers:
    print("  none")

print()
print("per size, median over seeds (parent -> change):")
print(f"{'site':<11} {'users':>5} {'iterations':>16} {'solve us (best of 3)':>26}")
groups = defaultdict(list)
for s in sites:
    groups[s[:2]].append(s)
for (preset, users), of in groups.items():
    med = lambda side, column: statistics.median(float(side[s][column]) for s in of)
    print(f"{preset:<11} {users:>5} {med(p, 'iterations'):>7g} -> {med(c, 'iterations'):<6g} "
          f"{med(p, 'solve_us'):>11.1f} -> {med(c, 'solve_us'):<11.1f}")
EOF
