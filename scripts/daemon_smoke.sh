#!/usr/bin/env bash
# Loopback smoke test for the wolt daemon: boot the Central Controller on
# 127.0.0.1 with an OS-assigned port, connect one agent per user, and
# require a clean converged session — plus a live `wolt metrics` query
# against the running daemon, a `wolt fleet status` query that lists its
# one anonymous site, and a `--metrics-out` dump at shutdown.
# Used by CI (with a hard timeout and WOLT_THREADS=2) and runnable
# locally:
#
#   cargo build --release -p wolt-cli && bash scripts/daemon_smoke.sh
set -euo pipefail

BIN="${BIN:-target/release/wolt}"
USERS="${USERS:-7}"
SEED="${SEED:-1}"
# Where the daemon dumps its final metrics snapshot; CI points this at a
# workspace path and uploads it as an artifact.
METRICS_OUT="${METRICS_OUT:-}"

WORK="$(mktemp -d)"
[ -n "$METRICS_OUT" ] || METRICS_OUT="$WORK/metrics.json"
cleanup() {
    rm -rf "$WORK"
    # shellcheck disable=SC2046
    kill $(jobs -p) 2>/dev/null || true
}
trap cleanup EXIT

# First numeric value of a named counter in a metrics JSON dump.
counter() {
    grep -o "\"$2\": [0-9]*" "$1" | head -n 1 | grep -o '[0-9]*$' || echo 0
}

"$BIN" serve --addr 127.0.0.1:0 --preset lab --users "$USERS" --seed "$SEED" \
    --addr-file "$WORK/addr" --output "$WORK/report.json" \
    --metrics-out "$METRICS_OUT" --linger-ms 2000 &
SERVE_PID=$!

# The daemon writes its bound address once the listener is up.
for _ in $(seq 1 200); do
    [ -s "$WORK/addr" ] && break
    kill -0 "$SERVE_PID" 2>/dev/null || { echo "daemon exited before binding" >&2; exit 1; }
    sleep 0.05
done
[ -s "$WORK/addr" ] || { echo "daemon never published its address" >&2; exit 1; }
ADDR="$(cat "$WORK/addr")"

# The single-site server is a one-site fleet: status lists the anonymous
# site "" (still waiting for its agents), and adding a site is refused.
"$BIN" fleet status --addr "$ADDR" --output "$WORK/status.json"
grep -q '"site": ""' "$WORK/status.json" ||
    { echo "fleet status does not list the anonymous site:" >&2; cat "$WORK/status.json" >&2; exit 1; }
if "$BIN" fleet add --addr "$ADDR" --site annex --preset lab --users 1 --seed 7 2> "$WORK/add.err"; then
    echo "fleet add against a single-site server unexpectedly succeeded" >&2
    exit 1
fi
grep -q "anonymous" "$WORK/add.err" ||
    { echo "fleet add failed without the anonymous-site refusal:" >&2; cat "$WORK/add.err" >&2; exit 1; }

for i in $(seq 0 $((USERS - 1))); do
    "$BIN" agent --addr "$ADDR" --preset lab --users "$USERS" --seed "$SEED" \
        --client "$i" --name "smoke-$i" &
done

# Poll the live daemon over the metrics envelope until its counters show
# real work (the --linger-ms window guarantees the finished session stays
# observable). This exercises the wire-protocol metrics path end to end.
LIVE_OK=0
for _ in $(seq 1 100); do
    if "$BIN" metrics --addr "$ADDR" --output "$WORK/live_metrics.json" 2>/dev/null; then
        if [ "$(counter "$WORK/live_metrics.json" core.solves)" -gt 0 ] &&
            [ "$(counter "$WORK/live_metrics.json" daemon.frames_in)" -gt 0 ]; then
            LIVE_OK=1
            break
        fi
    fi
    kill -0 "$SERVE_PID" 2>/dev/null || break
    sleep 0.1
done
if [ "$LIVE_OK" -ne 1 ]; then
    echo "live metrics query never showed non-zero solves/frames_in" >&2
    [ -f "$WORK/live_metrics.json" ] && cat "$WORK/live_metrics.json" >&2
    exit 1
fi

wait "$SERVE_PID"
if ! grep -q '"completed": true' "$WORK/report.json"; then
    echo "session did not converge:" >&2
    cat "$WORK/report.json" >&2
    exit 1
fi

# The shutdown dump must exist and agree with the live view: non-zero
# wire traffic and solver work.
[ -s "$METRICS_OUT" ] || { echo "daemon wrote no --metrics-out dump" >&2; exit 1; }
for name in core.solves cc.directives daemon.frames_in daemon.frames_out; do
    v="$(counter "$METRICS_OUT" "$name")"
    if [ "$v" -le 0 ]; then
        echo "metrics dump has $name = $v (expected > 0):" >&2
        cat "$METRICS_OUT" >&2
        exit 1
    fi
done

wait
echo "daemon smoke: clean converged session over $ADDR with $USERS agents;" \
    "fleet status + live metrics + shutdown dump verified ($METRICS_OUT)"
