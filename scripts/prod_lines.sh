#!/usr/bin/env bash
# Count production Rust lines per crate and in total. The rule: in
# `crates/*/src/**/*.rs`, count the non-blank lines that do not start
# with `//` (after leading spaces), stopping each file at its first
# `#[cfg(test)]` at column 0.
#
# With no argument it counts the working tree. Given revisions, it counts
# each one from `git archive` in a temporary directory, one block per
# revision. Writes nothing in the checkout.
#
#   bash scripts/prod_lines.sh [rev...]
set -euo pipefail

REPO="$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

# Prints one `<crate> <lines>` row per crate, then `total <lines>`.
count() {
    (cd "$1" && find crates -path 'crates/*/src/*' -name '*.rs' -exec awk '
        FNR == 1 { split(FILENAME, path, "/"); crate = path[2]; live = 1; n[crate] += 0 }
        /^#\[cfg\(test\)\]/ { live = 0 }
        live && NF && !/^[[:space:]]*\/\// { n[crate]++ }
        END { for (c in n) print c, n[c] }' {} +) |
        sort | awk '
            $1 != prev && NR > 1 { printf "%-10s %6d\n", prev, sum; sum = 0 }
            { prev = $1; sum += $2; total += $2 }
            END { printf "%-10s %6d\n%-10s %6d\n", prev, sum, "total", total }'
}

if [ "$#" -eq 0 ]; then
    echo "working tree"
    count "$REPO"
    exit 0
fi

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
for arg in "$@"; do
    rev="$(git -C "$REPO" rev-parse --verify "$arg^{commit}")"
    rm -rf "$WORK/tree"
    mkdir "$WORK/tree"
    git -C "$REPO" archive "$rev" crates | tar -x -C "$WORK/tree"
    echo "$arg ($rev)"
    count "$WORK/tree"
done
