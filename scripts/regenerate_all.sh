#!/usr/bin/env bash
# Regenerates every paper figure and extension experiment into results/.
# Usage: scripts/regenerate_all.sh  (from the repository root)
set -euo pipefail

out=results
mkdir -p "$out"

bins=(fig2a fig2b fig2c fig3 fig4a fig4b fig4c fig5 fig6a fig6b fig6c fairness ablation resilience flow_fidelity)
for bin in "${bins[@]}"; do
    echo ">>> $bin"
    cargo run --quiet --release --offline -p wolt-bench --bin "$bin" | tee "$out/$bin.csv"
done

echo ">>> micro-benchmarks (plain harness binaries; CSV on stdout)"
benches=(bench_hungarian bench_association)
for bench in "${benches[@]}"; do
    echo ">>> $bench"
    cargo run --quiet --release --offline -p wolt-bench --bin "$bench" | tee "$out/$bench.csv"
done

echo "all experiment outputs written to $out/"
