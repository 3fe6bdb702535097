#!/bin/sh
# Bench smoke test: run bench_fig3_runtime on a tiny --smoke configuration,
# validate the emitted JSON against the schema checker, and gate on the
# cache ablation (on/off decodes bit-identical; cached path no more than 10%
# slower than uncached). The report is written under a temporary name and
# renamed into place, so a concurrent `check_bench_json.py --scan` never
# reads it half-written.
#
# Usage: run_bench_smoke.sh BENCH_BINARY CHECKER_PY OUT_JSON [PYTHON3]
set -u
BENCH="$1"
CHECKER="$2"
OUT="$3"
PY="${4:-python3}"

STAGE=none
run() {
  STAGE="$1"
  shift
  echo "[bench_smoke] stage: $STAGE" >&2
  if ! "$@"; then
    echo "[bench_smoke] FAILED at stage: $STAGE" >&2
    exit 1
  fi
}

TMP="$OUT.tmp"
rm -f "$TMP"
run bench "$BENCH" --smoke --json "$TMP"
run json-exists test -s "$TMP"
mv "$TMP" "$OUT" || exit 1
run validate "$PY" "$CHECKER" "$OUT"
run compare-cache "$PY" "$CHECKER" --compare-cache "$OUT"
echo "[bench_smoke] all stages passed" >&2
