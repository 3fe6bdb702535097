#!/bin/sh
# Bench smoke test: run bench_fig3_runtime on a tiny --smoke configuration,
# validate the emitted JSON against the schema checker, and gate on the
# three ablations: cache (on/off decodes bit-identical; cached path no more
# than 10% slower than uncached), decode plan (on/off decodes bit-identical;
# table hits and sliced queries observed; fewer solver propagations), and
# solver backend (subprocess/degraded decodes bit-identical to in-process;
# the degradation ladder engaged).
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

rm -f "$OUT"
run bench "$BENCH" --smoke --json "$OUT"
run json-exists test -s "$OUT"
run validate "$PY" "$CHECKER" "$OUT"
run compare-cache "$PY" "$CHECKER" --compare-cache "$OUT"
run compare-plan "$PY" "$CHECKER" --compare-plan "$OUT"
run compare-backend "$PY" "$CHECKER" --compare-backend "$OUT"
echo "[bench_smoke] all stages passed" >&2
