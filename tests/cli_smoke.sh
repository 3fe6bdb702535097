#!/bin/sh
# End-to-end smoke test of the lejit_cli workflow:
# generate -> mine -> train (briefly) -> synth -> check must yield 0
# violations, and the observability exports must produce non-empty JSON.
#
# Each stage announces itself and failures name the stage, so a broken
# pipeline points at the broken step instead of dying silently under -e.
set -u
CLI="$1"
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT
cd "$DIR" || exit 1

STAGE=none
run() {
  STAGE="$1"
  shift
  echo "[cli_smoke] stage: $STAGE" >&2
  if ! "$@"; then
    echo "[cli_smoke] FAILED at stage: $STAGE" >&2
    exit 1
  fi
}

run generate "$CLI" generate --racks 6 --windows 30 --seed 3 --out corpus.txt 2>/dev/null
run mine "$CLI" mine --corpus corpus.txt --out rules.txt 2>/dev/null

# Acceptance gate for the static analyzer: a mined (Fig. 3-style) rule set
# must lint clean — exit 0, zero errors — while a contradictory set must be
# rejected (exit 1) with a named conflict subset.
run lint-mined "$CLI" lint --rules rules.txt 2>/dev/null >/dev/null
printf 'egress >= 50\negress <= 40\n' > contradictory.txt
STAGE=lint-contradictory
echo "[cli_smoke] stage: $STAGE" >&2
"$CLI" lint --rules contradictory.txt 2>/dev/null > lint_bad.txt
if [ "$?" != 1 ] || ! grep -q E_UNSAT lint_bad.txt; then
  echo "[cli_smoke] FAILED at stage: $STAGE" >&2
  exit 1
fi

# Static decode-plan compiler: a mined rule set must compile to an active
# plan (exit 0) whose JSON artifact round-trips through from_json — exercised
# by loading it back into a decode below.
run plan-compile "$CLI" plan --rules rules.txt --out plan.json 2>/dev/null >/dev/null
run plan-artifact test -s plan.json
run plan-content grep -q fingerprint plan.json

run train "$CLI" train --corpus corpus.txt --steps 25 --dmodel 32 --heads 2 --dff 48 --out model.bin 2>/dev/null

STAGE=synth
echo "[cli_smoke] stage: $STAGE" >&2
if ! "$CLI" synth --model model.bin --rules rules.txt --count 6 --seed 9 \
      --metrics-out metrics.json --trace-out trace.json 2>/dev/null > rows.txt; then
  echo "[cli_smoke] FAILED at stage: $STAGE" >&2
  exit 1
fi

run synth-output test -s rows.txt
run metrics-output test -s metrics.json
run metrics-content grep -q smt.checks metrics.json
run trace-output test -s trace.json
run trace-content grep -q traceEvents trace.json
run check "$CLI" check --rules rules.txt --rows rows.txt

# Imputation over a prompt file: every coarse prompt must come back either
# imputed or reported infeasible, and none may be misread as malformed.
run generate-coarse "$CLI" generate --coarse --racks 3 --windows 30 --seed 77 --out prompts.txt 2>/dev/null
STAGE=impute-prompts
echo "[cli_smoke] stage: $STAGE" >&2
"$CLI" impute --model model.bin --rules rules.txt --prompts prompts.txt \
    2>impute_err.txt > imputed.txt
status=$?
counts=$(sed -n 's/^imputed \([0-9]*\) rows, \([0-9]*\) infeasible prompts$/\1 \2/p' impute_err.txt)
set -- $counts
if [ "$status" != 0 ] || [ "$#" != 2 ] || grep -q malformed impute_err.txt ||
   [ $(($1 + $2)) != "$(grep -c . prompts.txt)" ]; then
  echo "[cli_smoke] FAILED at stage: $STAGE" >&2
  exit 1
fi
run impute-check "$CLI" check --rules rules.txt --rows imputed.txt

# The compiled plan must load into a decode, drive it (plan counters in the
# metrics export), and — the paper's invariant — change nothing about the
# decoded rows: same seed, same text, so `check` still passes and the rows
# match the plan-free synth byte for byte.
STAGE=synth-planned
echo "[cli_smoke] stage: $STAGE" >&2
if ! "$CLI" synth --model model.bin --rules rules.txt --count 6 --seed 9 \
      --plan plan.json --metrics-out metrics_plan.json 2>/dev/null > rows_plan.txt; then
  echo "[cli_smoke] FAILED at stage: $STAGE" >&2
  exit 1
fi
run planned-bit-identical cmp rows.txt rows_plan.txt
run planned-metrics grep -q "decode.plan.table_hits" metrics_plan.json
run planned-check "$CLI" check --rules rules.txt --rows rows_plan.txt

# A tampered artifact (fingerprint flipped) must be rejected with exit 1
# before any decode happens.
STAGE=plan-tampered
echo "[cli_smoke] stage: $STAGE" >&2
sed 's/"fingerprint":"f/"fingerprint":"#/; s/"fingerprint":"[0-9a-e]/"fingerprint":"f/; s/"fingerprint":"#/"fingerprint":"0/' \
    plan.json > plan_bad.json
"$CLI" synth --model model.bin --rules rules.txt --count 1 --seed 9 \
    --plan plan_bad.json 2>plan_bad_err.txt >/dev/null
if [ "$?" != 1 ] || ! grep -q "stale decode plan" plan_bad_err.txt; then
  echo "[cli_smoke] FAILED at stage: $STAGE" >&2
  exit 1
fi

# Translation validation (DESIGN.md §14): the independent verifier must
# certify the compiled artifact (exit 0) and reject a forged verdict inside
# an otherwise well-bound artifact (exit 1 + a stable finding code) — the
# tamper class the fingerprint check above cannot see.
run plan-verify "$CLI" plan-verify --plan plan.json --rules rules.txt 2>/dev/null >/dev/null
STAGE=plan-verify-tampered
echo "[cli_smoke] stage: $STAGE" >&2
sed 's/"satisfiable":"sat"/"satisfiable":"unsat"/' plan.json > plan_forged.json
"$CLI" plan-verify --plan plan_forged.json --rules rules.txt 2>/dev/null > verify_bad.txt
if [ "$?" != 1 ] || ! grep -q "E_" verify_bad.txt; then
  echo "[cli_smoke] FAILED at stage: $STAGE" >&2
  exit 1
fi

# Decoding with --verify-plan engages the verifier as a load gate and must
# not change a single decoded byte.
STAGE=synth-verified-plan
echo "[cli_smoke] stage: $STAGE" >&2
if ! "$CLI" synth --model model.bin --rules rules.txt --count 6 --seed 9 \
      --plan plan.json --verify-plan 2>/dev/null > rows_verified.txt; then
  echo "[cli_smoke] FAILED at stage: $STAGE" >&2
  exit 1
fi
run verified-bit-identical cmp rows.txt rows_verified.txt

# Overwrite guard: recompiling the same rule set over its artifact is fine;
# a different set must refuse (exit 2) unless --force.
run plan-recompile-same "$CLI" plan --rules rules.txt --out plan.json 2>/dev/null >/dev/null
STAGE=plan-overwrite-guard
echo "[cli_smoke] stage: $STAGE" >&2
"$CLI" plan --rules contradictory.txt --out plan.json 2>/dev/null >/dev/null
if [ "$?" != 2 ]; then
  echo "[cli_smoke] FAILED at stage: $STAGE" >&2
  exit 1
fi
run plan-overwrite-forced "$CLI" plan --rules rules.txt --out plan.json --force 2>/dev/null >/dev/null
echo "[cli_smoke] all stages passed" >&2
