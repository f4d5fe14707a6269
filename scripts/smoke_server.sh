#!/usr/bin/env bash
# Loopback smoke test: build gfserved + gfload, bring the server up with
# the admin endpoint and progress lines enabled, drive 10k RS(255,239)
# round trips over 8 connections through a noisy channel while scraping
# /healthz and /metrics mid-load (failing on malformed exposition), then
# shut the server down gracefully (SIGINT) and check it drains and exits
# cleanly. Run from the repo root; exits nonzero on any failure.
set -euo pipefail

ADDR="${ADDR:-127.0.0.1:24650}"
ADMIN="${ADMIN:-127.0.0.1:24690}"
REQUESTS="${REQUESTS:-10000}"
CONNS="${CONNS:-8}"
WINDOW="${WINDOW:-8}"
# ~2 bit flips per 255-byte word: real corrections on every frame, but
# comfortably inside RS(255,239)'s t=8 bound (p=0.004 would sit AT the
# bound and fail half the words).
P="${P:-0.001}"

workdir=$(mktemp -d)
trap 'kill "$server_pid" "$load_pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT
server_pid= load_pid=

go build -o "$workdir/gfserved" ./cmd/gfserved
go build -o "$workdir/gfload" ./cmd/gfload

"$workdir/gfserved" -addr "$ADDR" -admin "$ADMIN" -progress 2s \
  >"$workdir/server.log" 2>&1 &
server_pid=$!

# Wait for the admin plane before launching load.
up=0
for _ in $(seq 1 100); do
  if curl -fsS "http://$ADMIN/healthz" >/dev/null 2>&1; then up=1; break; fi
  sleep 0.1
done
if [ "$up" != 1 ]; then
  echo "smoke: /healthz never came up on $ADMIN" >&2
  cat "$workdir/server.log" >&2
  exit 1
fi

"$workdir/gfload" -addr "$ADDR" -wait 10s \
  -conns "$CONNS" -window "$WINDOW" -requests "$REQUESTS" -p "$P" \
  -metrics-out "$workdir/load-metrics.json" >"$workdir/load.log" 2>&1 &
load_pid=$!

# Mid-load scrape: the exposition must be well-formed Prometheus text —
# every line a comment (# HELP/# TYPE) or `name{labels} value [ts]` —
# and must cover the server ledger, pipeline stages, queue-wait
# histograms and kernel tiers.
sleep 0.5
curl -fsS "http://$ADMIN/metrics" >"$workdir/metrics.txt"
awk '
  /^#/ {
    if ($0 !~ /^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* /) { bad = 1; print "bad comment: " $0 > "/dev/stderr" }
    next
  }
  !/^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (-?[0-9.eE+-]+|\+Inf|-Inf|NaN)( [0-9]+)?$/ {
    bad = 1; print "bad sample: " $0 > "/dev/stderr"
  }
  END { exit bad }
' "$workdir/metrics.txt" || {
  echo "smoke: malformed Prometheus exposition" >&2
  exit 1
}
for want in gfp_server_requests_total gfp_pipeline_stage_frames_total \
    gfp_pipeline_stage_queue_wait_seconds_bucket gfp_gf_kernel_calls_total; do
  grep -q "^$want" "$workdir/metrics.txt" || {
    echo "smoke: /metrics missing $want" >&2
    exit 1
  }
done
# Download before grepping: with pipefail, `curl | grep -q` fails
# whenever grep matches and exits before curl finishes writing.
curl -fsS "http://$ADMIN/statsz" >"$workdir/statsz.json"
grep -q '"metrics"' "$workdir/statsz.json" || {
  echo "smoke: /statsz missing metrics array" >&2
  exit 1
}

wait "$load_pid" || {
  status=$?
  echo "smoke: gfload exited with status $status" >&2
  cat "$workdir/load.log" >&2
  exit "$status"
}
load_pid=

# Post-load: every frame the codec stage processed has its queue wait
# measured, so the histogram's count equals the stage's frame counter.
curl -fsS "http://$ADMIN/metrics" >"$workdir/metrics-after.txt"
waited=$(awk '/^gfp_pipeline_stage_queue_wait_seconds_count\{stage="codec-dispatch"\} /{print $2}' "$workdir/metrics-after.txt")
frames=$(awk '/^gfp_pipeline_stage_frames_total\{stage="codec-dispatch"\} /{print $2}' "$workdir/metrics-after.txt")
if [ -z "$frames" ] || [ "${frames%%.*}" -lt 1 ] || [ "$waited" != "$frames" ]; then
  echo "smoke: queue-wait count '${waited:-none}' != codec-dispatch frames '${frames:-none}' after load" >&2
  exit 1
fi
grep -q '"gfp_load_round_trips_total"' "$workdir/load-metrics.json" || {
  echo "smoke: gfload -metrics-out dump missing round-trip counters" >&2
  exit 1
}

kill -INT "$server_pid"
for _ in $(seq 1 100); do
  kill -0 "$server_pid" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$server_pid" 2>/dev/null; then
  echo "smoke: gfserved did not exit within 10s of SIGINT" >&2
  cat "$workdir/server.log" >&2
  exit 1
fi
wait "$server_pid" || {
  status=$?
  echo "smoke: gfserved exited with status $status" >&2
  cat "$workdir/server.log" >&2
  exit "$status"
}
server_pid=

grep -q '"requests"' "$workdir/server.log" || {
  echo "smoke: no final stats snapshot in server log" >&2
  cat "$workdir/server.log" >&2
  exit 1
}
echo "smoke: ok — $REQUESTS round trips + live /metrics + graceful drain"
