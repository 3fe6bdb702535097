#!/usr/bin/env python3
"""Entry point of the LeJIT repository benchmark.

    python3 perfbench/run.py --workload impute-gpt --seed 1 --seconds 10 --trace 0

Builds the measuring program (perfbench/, compiled against the repository's
src/) into .bench_build/, runs one workload in its own process on the inputs
committed under perfbench/inputs/, and prints its report. The last line of
stdout is the result object {"correct", "attempted", "failed", "metrics"}; the
line before it holds the provenance. README.md describes the workloads and
every metric.

Exit codes: 0 ok, 1 an output check failed, 2 the benchmark could not run.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "perfbench"
BINARY = CMAKE_DIR / "lejit_perfbench"
COMMITTED_INPUTS = BENCH_DIR / "inputs"
WORKLOADS = ("impute-gpt", "synth-ngram", "serve-impute")
# Exit code of the measuring program when the inputs do not load with the
# code being measured (a changed checkpoint or rule format).
UNUSABLE_INPUTS = 3
# A measured run must end within 180 s; building and preparing the inputs,
# which only the first run of a checkout does, are exempt.
RUN_BUDGET_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def tool_env():
    """Environment for child processes: temporary files stay in the checkout."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build():
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not (CMAKE_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(CMAKE_DIR)])
    steps.append(["cmake", "--build", str(CMAKE_DIR), "--target",
                  "lejit_perfbench", "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the report.
        if subprocess.run(cmd, stdout=sys.stderr, env=tool_env()).returncode:
            fail("build failed: " + " ".join(cmd))


def source_digest():
    """sha256 over the program sources; keys regenerated inputs."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def regenerate_inputs(digest):
    """Trains the nano-GPT and mines the rules with this source tree, once.

    Only for a tree that cannot load the committed inputs: its figures are
    then not comparable with those of a tree that can.
    """
    inputs = BUILD / "inputs" / digest[:16]
    if (inputs / "nano_gpt.ckpt").exists():
        return inputs
    staging = BUILD / "inputs" / f"{digest[:16]}.tmp{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    cmd = [str(BINARY), "prepare", "--out", str(staging)]
    if subprocess.run(cmd, stdout=sys.stderr, env=tool_env()).returncode:
        shutil.rmtree(staging, ignore_errors=True)
        fail("input preparation failed")
    try:
        staging.rename(inputs)
    except OSError:  # prepared concurrently by another run
        shutil.rmtree(staging, ignore_errors=True)
    return inputs


def measure(args, inputs, trace_file):
    """Runs one workload in the measuring program; returns the process."""
    cmd = [str(BINARY), "run", "--inputs", str(inputs),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_file)]
    if args.corrupt_row:
        cmd.append("--corrupt-row")
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=tool_env(), timeout=RUN_BUDGET_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_BUDGET_S} s")


def sha256_file(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def git_state():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None, None
    def git(*args):
        out = subprocess.run(["git", "-C", str(ROOT), *args],
                             capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else None
    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return sha, (None if status is None else bool(status))


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # Self-test only: corrupt one emitted row, which must fail the run.
    parser.add_argument("--corrupt-row", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail(f"no LeJIT sources under {ROOT / 'src'}")

    build()
    digest = source_digest()
    trace_file = BUILD / "traces" / f"{args.workload}.seed{args.seed}.json"
    started = time.monotonic()
    inputs = COMMITTED_INPUTS
    proc = measure(args, inputs, trace_file)
    if proc.returncode == UNUSABLE_INPUTS:
        print("perfbench: the committed inputs do not load with this source "
              "tree; regenerating them, so these figures do not compare with "
              "a tree that loads them", file=sys.stderr)
        inputs = regenerate_inputs(digest)
        proc = measure(args, inputs, trace_file)
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"no report from the measuring program (exit {proc.returncode})")
    if proc.returncode not in (0, 1):
        fail(f"measuring program exited {proc.returncode}")

    sha, dirty = git_state()
    rules_file = "rules_synth.txt" if args.workload == "synth-ngram" \
        else "rules_impute.txt"
    info = report["info"]
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": info["compiler"],
        "build_type": info["build_type"],
        "git_sha": sha,
        "git_dirty": dirty,
        "source_sha256": digest,
        "inputs": "committed" if inputs == COMMITTED_INPUTS else "regenerated",
        "checkpoint_sha256": sha256_file(inputs / "nano_gpt.ckpt"),
        "rules_sha256": sha256_file(inputs / rules_file),
        "rows_fnv1a64": info["rows_fnv1a64"],
        "trace_file": str(trace_file.relative_to(ROOT)) if args.trace else None,
        "run_wall_s": round(time.monotonic() - started, 3),
    }
    result = {key: report[key]
              for key in ("correct", "attempted", "failed", "metrics")}
    reports = BUILD / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    (reports / f"{args.workload}.seed{args.seed}.trace{args.trace}.json") \
        .write_text(json.dumps({"provenance": provenance, "info": info,
                                "result": result}, indent=2) + "\n")
    print(json.dumps({"provenance": provenance, "info": info}))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
