#!/bin/sh
# Serve bench smoke test: run bench_serve_throughput on its tiny --smoke
# configuration and gate the fresh report with check_bench_json.py
# --compare-serve. The report is written under a temporary name and renamed
# into place, so a concurrent `check_bench_json.py --scan` never reads it
# half-written.
#
# Usage: run_serve_bench_smoke.sh BENCH_BINARY CHECKER_PY OUT_JSON [PYTHON3]
set -u
BENCH="$1"
CHECKER="$2"
OUT="$3"
PY="${4:-python3}"

TMP="$OUT.tmp"
rm -f "$TMP"
"$BENCH" --smoke --json "$TMP" || exit 1
test -s "$TMP" || { echo "[serve_bench_smoke] no report written" >&2; exit 1; }
mv "$TMP" "$OUT" || exit 1
exec "$PY" "$CHECKER" --compare-serve "$OUT"
