#!/usr/bin/env python3
"""Self-test of the repository benchmark: python3 perfbench/selftest.py

Short runs of every workload in BENCHMARK.json check that
  - an untraced run emits every end_to_end metric and a traced run every
    per_layer metric, each with the unit BENCHMARK.json names, in a result
    line with exactly the keys correct/attempted/failed/metrics;
  - every row passes the output checks and none fails;
  - the trace file parses as Chrome-trace JSON, each span's parent exists,
    and every lm.logits span is the child of a row span of the same request;
  - a corrupted row makes the run exit non-zero with correct = false;
  - inputs whose checkpoint does not load make the measuring program exit 3,
    the code on which run.py regenerates them.
Exit code 0 when every check passes.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
SECONDS = "1"
SEED = "7"


def run(workload, trace, *extra):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", SEED, "--seconds", SECONDS,
           "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise AssertionError(f"{workload}: no report (exit {proc.returncode})"
                             f"\n{proc.stderr[-2000:]}")
    return proc.returncode, json.loads(lines[-2]), json.loads(lines[-1])


def check_metrics(workload, result, expected):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, \
        f"{workload}: result keys {sorted(result)}"
    names = {m["name"]: m["unit"] for m in expected}
    got = result["metrics"]
    assert set(got) == set(names), \
        f"{workload}: metrics {sorted(set(got) ^ set(names))} differ"
    for name, unit in names.items():
        assert got[name]["unit"] == unit, f"{workload}: {name} unit"
        assert isinstance(got[name]["value"], (int, float)), \
            f"{workload}: {name} value"


def check_trace(workload, path):
    events = json.loads(path.read_text())["traceEvents"]
    spans = {e["args"]["id"]: e for e in events}
    rows = [e for e in events if e["name"] == "row"]
    assert rows, f"{workload}: no row spans in {path}"
    lm_spans = 0
    for e in events:
        assert e["ph"] == "X" and e["dur"] >= 0, f"{workload}: bad event {e}"
        parent = e["args"]["parent"]
        assert parent == 0 or parent in spans, f"{workload}: orphan span {e}"
        if e["name"] == "lm.logits":
            lm_spans += 1
            row = spans[parent]
            assert row["name"] == "row", f"{workload}: lm span under {row}"
            assert row["args"]["request"] == e["args"]["request"], \
                f"{workload}: lm span of another request"
            assert row["ts"] <= e["ts"] and \
                e["ts"] + e["dur"] <= row["ts"] + row["dur"] + 1e-3, \
                f"{workload}: lm span outside its row"
    if workload != "serve-impute":  # the served LM runs inside the Server
        assert lm_spans > 0, f"{workload}: no lm.logits spans"


def check_unusable_inputs():
    broken = BUILD / "tmp" / "selftest_inputs"
    shutil.rmtree(broken, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench" / "inputs", broken)
    checkpoint = broken / "nano_gpt.ckpt"
    checkpoint.write_bytes(checkpoint.read_bytes()[:100])
    proc = subprocess.run(
        [str(BUILD / "perfbench" / "lejit_perfbench"), "run", "--inputs",
         str(broken), "--workload", "impute-gpt", "--seed", SEED,
         "--seconds", SECONDS, "--trace", "0"], capture_output=True, text=True)
    shutil.rmtree(broken)
    assert proc.returncode == 3 and not proc.stdout.strip(), \
        f"truncated checkpoint: exit {proc.returncode}, stdout {proc.stdout!r}"


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in bench["workloads"]:
        workload = w["name"]
        code, _, result = run(workload, 0)
        assert code == 0 and result["correct"], f"{workload}: untraced run"
        assert result["attempted"] >= 1 and result["failed"] == 0, \
            f"{workload}: {result['failed']} failed rows"
        check_metrics(workload, result, bench["end_to_end"])

        code, report, result = run(workload, 1)
        assert code == 0 and result["correct"], f"{workload}: traced run"
        check_metrics(workload, result, bench["per_layer"])
        check_trace(workload, ROOT / report["provenance"]["trace_file"])

        code, _, result = run(workload, 0, "--corrupt-row")
        assert code != 0 and not result["correct"], \
            f"{workload}: a corrupted row passed the output checks"
        print(f"selftest: {workload} ok", flush=True)
    check_unusable_inputs()
    print("selftest: unusable inputs exit 3")
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print(f"selftest: FAILED: {e}", file=sys.stderr)
        sys.exit(1)
