#!/usr/bin/env python3
"""Validate BENCH_*.json reports emitted by the bench harness (--json flag).

Usage:
  check_bench_json.py FILE [FILE ...]     validate specific report files
  check_bench_json.py --scan DIR          validate every BENCH_*.json under DIR
                                          (ok if none exist yet)
  check_bench_json.py --self-test         validate the checker itself against
                                          known-good and known-bad documents

Exit status 0 iff every checked document is valid. The required shape is the
contract future PRs regress against; extend REQUIRED_* in lockstep with
bench/harness.cpp's JsonReport::write().
"""

import argparse
import json
import pathlib
import sys

REQUIRED_TOP_KEYS = ("schema_version", "figure", "env", "tables", "metrics")
REQUIRED_ENV_KEYS = ("racks", "windows_per_rack", "test_racks", "seed",
                     "use_transformer", "train_steps")
REQUIRED_METRIC_KEYS = ("counters", "gauges", "histograms")
REQUIRED_HISTOGRAM_KEYS = ("count", "sum", "mean", "max", "p50", "p90", "p99")
# fig3_runtime carries the per-mode runtime/latency breakdown the ISSUE's
# acceptance criteria name explicitly.
REQUIRED_MODE_KEYS = ("name", "samples", "ms_per_sample", "wall_clock_s",
                      "solver_check_latency_us", "phase_seconds", "split",
                      "solver_propagations", "cache", "plan")
# Cache on/off comparison block the feasibility-cache PR's acceptance
# criteria read (--compare-cache).
REQUIRED_CACHE_ABLATION_KEYS = ("bit_identical", "propagations_on",
                                "propagations_off", "ms_per_sample_on",
                                "ms_per_sample_off")
# Plan on/off comparison block the decode-plan PR's acceptance criteria read
# (--compare-plan): decode.plan.* counters plus the propagation pair.
REQUIRED_PLAN_ABLATION_KEYS = ("bit_identical", "propagations_on",
                               "propagations_off", "ms_per_sample_on",
                               "ms_per_sample_off", "table_hits",
                               "sliced_queries", "slice_rule_fraction")
# Backend ablation block (--compare-backend): in-process vs subprocess vs
# degraded-subprocess runs of the mined workload. The block is optional in a
# report (pre-backend reports stay valid) but must be complete when present.
REQUIRED_BACKEND_ABLATION_KEYS = ("subprocess_available", "bit_identical",
                                  "ms_per_sample_inprocess",
                                  "ms_per_sample_subprocess",
                                  "ms_per_sample_degraded", "subprocess",
                                  "degraded_backend")
REQUIRED_BACKEND_STATS_KEYS = ("checks", "faults", "spawn_failures",
                               "respawns", "degraded")
# Serve sweep block (--compare-serve): the batched serving runtime's
# worker x batch throughput sweep, each configuration checked bit-identical
# against the sequential decode (BENCH_8.json, figure serve_throughput).
REQUIRED_SERVE_KEYS = ("rows", "seq_rows_per_sec", "bit_identical", "runs")
REQUIRED_SERVE_RUN_KEYS = ("workers", "batch", "rows_per_sec",
                           "speedup_vs_sequential", "mean_batch_width",
                           "batched_forwards", "degraded_rows",
                           "bit_identical")


def check_report(doc, errors, where):
    def err(msg):
        errors.append(f"{where}: {msg}")

    if not isinstance(doc, dict):
        err("top-level JSON value is not an object")
        return

    for key in REQUIRED_TOP_KEYS:
        if key not in doc:
            err(f"missing top-level key {key!r}")

    env = doc.get("env")
    if isinstance(env, dict):
        for key in REQUIRED_ENV_KEYS:
            if key not in env:
                err(f"env is missing {key!r}")
    elif env is not None:
        err("env is not an object")

    tables = doc.get("tables")
    if isinstance(tables, list):
        for i, table in enumerate(tables):
            if not isinstance(table, dict):
                err(f"tables[{i}] is not an object")
                continue
            for key in ("title", "headers", "rows"):
                if key not in table:
                    err(f"tables[{i}] is missing {key!r}")
            headers = table.get("headers", [])
            for j, row in enumerate(table.get("rows", [])):
                if isinstance(row, list) and isinstance(headers, list) and \
                        len(row) != len(headers):
                    err(f"tables[{i}].rows[{j}] has {len(row)} cells "
                        f"for {len(headers)} headers")
    elif tables is not None:
        err("tables is not an array")

    metrics = doc.get("metrics")
    if isinstance(metrics, dict):
        for key in REQUIRED_METRIC_KEYS:
            if key not in metrics:
                err(f"metrics is missing {key!r}")
        for name, hist in (metrics.get("histograms") or {}).items():
            if not isinstance(hist, dict):
                err(f"metrics.histograms[{name!r}] is not an object")
                continue
            for key in REQUIRED_HISTOGRAM_KEYS:
                if key not in hist:
                    err(f"metrics.histograms[{name!r}] is missing {key!r}")
    elif metrics is not None:
        err("metrics is not an object")

    if doc.get("figure") == "fig3_runtime":
        modes = doc.get("modes")
        if not isinstance(modes, list) or not modes:
            err("fig3_runtime report has no 'modes' array")
        else:
            for i, mode in enumerate(modes):
                if not isinstance(mode, dict):
                    err(f"modes[{i}] is not an object")
                    continue
                for key in REQUIRED_MODE_KEYS:
                    if key not in mode:
                        err(f"modes[{i}] is missing {key!r}")
                lat = mode.get("solver_check_latency_us")
                if isinstance(lat, dict):
                    for key in ("count", "p50", "p90", "p99"):
                        if key not in lat:
                            err(f"modes[{i}].solver_check_latency_us "
                                f"is missing {key!r}")
                phases = mode.get("phase_seconds")
                if isinstance(phases, dict):
                    for key in ("lm_forward", "solver_check"):
                        if key not in phases:
                            err(f"modes[{i}].phase_seconds is missing {key!r}")
                cache = mode.get("cache")
                if isinstance(cache, dict):
                    for key in ("hits", "misses"):
                        if key not in cache:
                            err(f"modes[{i}].cache is missing {key!r}")
                plan = mode.get("plan")
                if isinstance(plan, dict):
                    for key in ("table_hits", "sliced_queries",
                                "sliced_rules"):
                        if key not in plan:
                            err(f"modes[{i}].plan is missing {key!r}")
        ablation = doc.get("cache_ablation")
        if not isinstance(ablation, dict):
            err("fig3_runtime report has no 'cache_ablation' object")
        else:
            for key in REQUIRED_CACHE_ABLATION_KEYS:
                if key not in ablation:
                    err(f"cache_ablation is missing {key!r}")
        plan_ablation = doc.get("plan_ablation")
        if not isinstance(plan_ablation, dict):
            err("fig3_runtime report has no 'plan_ablation' object")
        else:
            for key in REQUIRED_PLAN_ABLATION_KEYS:
                if key not in plan_ablation:
                    err(f"plan_ablation is missing {key!r}")
        backend_ablation = doc.get("backend_ablation")
        if isinstance(backend_ablation, dict):
            for key in REQUIRED_BACKEND_ABLATION_KEYS:
                if key not in backend_ablation:
                    err(f"backend_ablation is missing {key!r}")
            for block in ("subprocess", "degraded_backend"):
                stats = backend_ablation.get(block)
                if isinstance(stats, dict):
                    for key in REQUIRED_BACKEND_STATS_KEYS:
                        if key not in stats:
                            err(f"backend_ablation.{block} is missing {key!r}")
        elif backend_ablation is not None:
            err("backend_ablation is not an object")


def check_file(path):
    errors = []
    try:
        doc = json.loads(pathlib.Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: unreadable or invalid JSON: {exc}"]
    check_report(doc, errors, str(path))
    return errors


def check_cache_ablation(path, slack=1.10):
    """Gate on the fig3 cache ablation: decodes must be bit-identical and the
    cached path must not be more than `slack`x slower than uncached (it is
    expected to be faster; the slack absorbs timer noise on tiny smoke runs).
    Returns a list of error strings (empty = pass)."""
    errors = check_file(path)
    if errors:
        return errors
    doc = json.loads(pathlib.Path(path).read_text())
    ablation = doc.get("cache_ablation") or {}
    errors = []
    if ablation.get("bit_identical") is not True:
        errors.append(f"{path}: cache on/off decodes are not bit-identical")
    on = float(ablation.get("ms_per_sample_on", 0.0))
    off = float(ablation.get("ms_per_sample_off", 0.0))
    if off <= 0.0:
        errors.append(f"{path}: uncached ms_per_sample is missing or zero")
    elif on > off * slack:
        errors.append(f"{path}: cached decode is {on:.3f} ms/sample vs "
                      f"{off:.3f} uncached (more than {slack:.2f}x slower)")
    if not errors:
        p_on = ablation.get("propagations_on", 0)
        p_off = ablation.get("propagations_off", 0)
        ratio = (p_off / p_on) if p_on else float("inf")
        speedup = (off / on) if on > 0 else float("inf")
        print(f"{path}: cache ablation ok — bit-identical, "
              f"{ratio:.1f}x fewer propagations, "
              f"{speedup:.2f}x faster per sample")
    return errors


def check_plan_ablation(path):
    """Gate on the fig3 plan ablation: decodes must be bit-identical with the
    plan on vs off, the plan must actually engage (table hits and sliced
    queries observed), and it must reduce total solver propagations over the
    workload. Returns a list of error strings (empty = pass)."""
    errors = check_file(path)
    if errors:
        return errors
    doc = json.loads(pathlib.Path(path).read_text())
    ablation = doc.get("plan_ablation") or {}
    errors = []
    if ablation.get("bit_identical") is not True:
        errors.append(f"{path}: plan on/off decodes are not bit-identical")
    if int(ablation.get("table_hits", 0)) <= 0:
        errors.append(f"{path}: plan never answered a verdict from its digit "
                      "tables (decode.plan.table_hits == 0)")
    if int(ablation.get("sliced_queries", 0)) <= 0:
        errors.append(f"{path}: plan never routed a query to a cluster slice "
                      "(decode.plan.sliced_queries == 0)")
    p_on = int(ablation.get("propagations_on", 0))
    p_off = int(ablation.get("propagations_off", 0))
    if p_off <= 0:
        errors.append(f"{path}: plan-off propagation count missing or zero")
    elif p_on >= p_off:
        errors.append(f"{path}: plan did not reduce solver propagations "
                      f"({p_on} with plan vs {p_off} without)")
    if not errors:
        frac = float(ablation.get("slice_rule_fraction", 0.0))
        print(f"{path}: plan ablation ok — bit-identical, "
              f"{p_off - p_on} fewer propagations, "
              f"{ablation['table_hits']} table hits, "
              f"{ablation['sliced_queries']} sliced queries "
              f"(mean {frac:.2f} of the rule set per slice)")
    return errors


def check_backend_ablation(path):
    """Gate on the fig3 backend ablation: the subprocess and degraded runs
    must decode bit-identically to the in-process run, and the degraded run
    must actually have exercised the fallback ladder. A missing report or a
    report that predates the backend layer is a clear skip (exit 0), never a
    traceback — baselines regenerate on their own cadence.
    Returns a list of error strings (empty = pass or skip)."""
    p = pathlib.Path(path)
    if not p.exists():
        print(f"{path}: no report to compare against; skipping backend gate")
        return []
    errors = check_file(path)
    if errors:
        return errors
    doc = json.loads(p.read_text())
    ablation = doc.get("backend_ablation")
    if not isinstance(ablation, dict):
        print(f"{path}: report predates the backend ablation; "
              "skipping backend gate")
        return []
    errors = []
    if ablation.get("bit_identical") is not True:
        errors.append(f"{path}: subprocess/degraded decodes are not "
                      "bit-identical to the in-process run")
    degraded = ablation.get("degraded_backend") or {}
    if int(degraded.get("degraded", 0)) <= 0:
        errors.append(f"{path}: degraded run never engaged the in-process "
                      "fallback (degraded_backend.degraded == 0)")
    # Once the primary is declared permanently unhealthy the failover routes
    # around it without touching it, so `degraded` can exceed `faults`; but a
    # degraded run with *no* recorded fault at all means the incident
    # accounting is broken.
    if int(degraded.get("degraded", 0)) > 0 \
            and int(degraded.get("faults", 0)) <= 0:
        errors.append(f"{path}: degraded run reports degraded checks but "
                      "zero backend faults — incident accounting is broken")
    if ablation.get("subprocess_available"):
        sub = ablation.get("subprocess") or {}
        if int(sub.get("checks", 0)) <= 0:
            errors.append(f"{path}: subprocess leg ran but served no checks")
    if not errors:
        where = (ablation.get("solver_path") or "unavailable") \
            if ablation.get("subprocess_available") else "skipped"
        print(f"{path}: backend ablation ok — bit-identical, "
              f"{degraded.get('degraded', 0)} checks degraded to fallback, "
              f"subprocess leg: {where}")
    return errors


def check_serve(path):
    """Gate on the serve throughput sweep (BENCH_8.json): every worker x
    batch configuration must decode bit-identically to the sequential
    reference with no degraded rows, and at least one multi-session
    configuration must have realized actual batching (mean width > 1).
    Throughput itself is reported, not gated — CI machines are too noisy for
    a speedup assertion. A missing FILE is a clean skip (exit 0), never a
    traceback — baselines regenerate on their own cadence.
    Returns a list of error strings (empty = pass or skip)."""
    p = pathlib.Path(path)
    if not p.exists():
        print(f"{path}: no report to compare against; skipping serve gate")
        return []
    errors = check_file(path)
    if errors:
        return errors
    doc = json.loads(p.read_text())
    serve = doc.get("serve")
    if not isinstance(serve, dict):
        print(f"{path}: report predates the serve runtime; "
              "skipping serve gate")
        return []
    errors = []
    for key in REQUIRED_SERVE_KEYS:
        if key not in serve:
            errors.append(f"{path}: serve is missing {key!r}")
    if serve.get("bit_identical") is not True:
        errors.append(f"{path}: serve decodes are not bit-identical to the "
                      "sequential reference")
    runs = serve.get("runs")
    if not isinstance(runs, list) or not runs:
        errors.append(f"{path}: serve has no 'runs' array")
        runs = []
    batched_width = 0.0
    for i, run in enumerate(runs):
        if not isinstance(run, dict):
            errors.append(f"{path}: serve.runs[{i}] is not an object")
            continue
        for key in REQUIRED_SERVE_RUN_KEYS:
            if key not in run:
                errors.append(f"{path}: serve.runs[{i}] is missing {key!r}")
        if run.get("bit_identical") is not True:
            errors.append(f"{path}: serve.runs[{i}] "
                          f"({run.get('workers')}x{run.get('batch')}) is not "
                          "bit-identical")
        if int(run.get("degraded_rows", 0)) != 0:
            errors.append(f"{path}: serve.runs[{i}] degraded "
                          f"{run['degraded_rows']} row(s)")
        if float(run.get("rows_per_sec", 0.0)) <= 0.0:
            errors.append(f"{path}: serve.runs[{i}] reports no throughput")
        if int(run.get("workers", 0)) * int(run.get("batch", 0)) > 1:
            batched_width = max(batched_width,
                                float(run.get("mean_batch_width", 0.0)))
    if runs and batched_width <= 1.0:
        errors.append(f"{path}: no multi-session configuration realized any "
                      f"batching (best mean width {batched_width:.2f})")
    if not errors:
        best = max((float(r.get("rows_per_sec", 0.0)) for r in runs),
                   default=0.0)
        seq = float(serve.get("seq_rows_per_sec", 0.0))
        print(f"{path}: serve sweep ok — {len(runs)} configs bit-identical, "
              f"best {best:.1f} rows/s vs {seq:.1f} sequential, "
              f"best mean batch width {batched_width:.2f}")
    return errors


def self_test():
    good = {
        "schema_version": 1,
        "figure": "fig3_runtime",
        "env": {"racks": 30, "windows_per_rack": 80, "test_racks": 5,
                "seed": 20250705, "use_transformer": True, "train_steps": 400},
        "modes": [{
            "name": "LeJIT (mined rules)", "samples": 40,
            "ms_per_sample": 12.5, "wall_clock_s": 0.5,
            "solver_check_latency_us":
                {"count": 900, "p50": 40.0, "p90": 90.0, "p99": 200.0},
            "phase_seconds": {"lm_forward": 0.2, "solver_check": 0.25,
                              "mask_build": 0.27, "sampling": 0.01},
            "lm_forwards": 400,
            "solver_propagations": 120000,
            "cache": {"hits": 500, "misses": 400},
            "plan": {"table_hits": 0, "sliced_queries": 0, "sliced_rules": 0},
            "split": {"lm_forward_frac": 0.44, "solver_check_frac": 0.56},
        }],
        "cache_ablation": {
            "bit_identical": True,
            "propagations_on": 120000, "propagations_off": 480000,
            "ms_per_sample_on": 12.5, "ms_per_sample_off": 20.0,
            "cache_hits": 500, "cache_misses": 400,
        },
        "plan_ablation": {
            "bit_identical": True,
            "propagations_on": 100000, "propagations_off": 120000,
            "ms_per_sample_on": 12.0, "ms_per_sample_off": 12.5,
            "table_hits": 240, "sliced_queries": 900,
            "slice_rule_fraction": 0.4, "compile_solver_checks": 6000,
        },
        "backend_ablation": {
            "subprocess_available": True, "solver_path": "/usr/bin/z3",
            "bit_identical": True,
            "ms_per_sample_inprocess": 12.5,
            "ms_per_sample_subprocess": 19.0,
            "ms_per_sample_degraded": 13.0,
            "subprocess": {"checks": 900, "faults": 0, "spawn_failures": 0,
                           "respawns": 0, "degraded": 0},
            "degraded_backend": {"checks": 900, "faults": 900,
                                 "spawn_failures": 4, "respawns": 0,
                                 "degraded": 900},
        },
        "tables": [{"title": "t", "headers": ["a", "b"],
                    "rows": [["1", "2"]]}],
        "metrics": {"counters": {"smt.checks": 900}, "gauges": {},
                    "histograms": {"smt.check_latency_us": {
                        "count": 900, "sum": 1.0, "mean": 0.1, "max": 3.0,
                        "p50": 0.04, "p90": 0.09, "p99": 0.2}}},
    }
    errors = []
    check_report(good, errors, "self-test-good")
    if errors:
        print("self-test FAILED: known-good document rejected:",
              file=sys.stderr)
        for e in errors:
            print("  " + e, file=sys.stderr)
        return False

    bad_documents = [
        {},  # everything missing
        {**good, "env": {"racks": 1}},  # env incomplete
        {**good, "metrics": {"counters": {}}},  # metrics incomplete
        {**good, "modes": [{"name": "x"}]},  # mode incomplete
        {**good, "tables": [{"title": "t", "headers": ["a"],
                             "rows": [["1", "2"]]}]},  # ragged table
        {k: v for k, v in good.items()
         if k != "cache_ablation"},  # ablation block missing
        {**good, "cache_ablation": {"bit_identical": True}},  # incomplete
        {k: v for k, v in good.items()
         if k != "plan_ablation"},  # plan ablation missing
        {**good, "plan_ablation": {"bit_identical": True}},  # incomplete
        {**good, "modes": [{**good["modes"][0],
                            "plan": {"table_hits": 1}}]},  # plan incomplete
        {**good, "backend_ablation": {"bit_identical": True}},  # incomplete
        {**good, "backend_ablation": {
            **good["backend_ablation"],
            "degraded_backend": {"checks": 1}}},  # stats block incomplete
    ]
    for i, bad in enumerate(bad_documents):
        errors = []
        check_report(bad, errors, f"self-test-bad-{i}")
        if not errors:
            print(f"self-test FAILED: known-bad document {i} accepted",
                  file=sys.stderr)
            return False

    # A report lacking the backend block (pre-backend baseline) must stay
    # valid, and --compare-backend against a missing file must be a clean
    # skip rather than a traceback.
    errors = []
    check_report({k: v for k, v in good.items() if k != "backend_ablation"},
                 errors, "self-test-no-backend-block")
    if errors:
        print("self-test FAILED: report without backend_ablation rejected",
              file=sys.stderr)
        return False
    if check_backend_ablation("/nonexistent/self-test/BENCH_7.json"):
        print("self-test FAILED: missing baseline did not skip cleanly",
              file=sys.stderr)
        return False
    if check_serve("/nonexistent/self-test/BENCH_8.json"):
        print("self-test FAILED: missing serve report did not skip cleanly",
              file=sys.stderr)
        return False
    # The serve gate itself: a good sweep passes, a mismatched or width-less
    # one fails.
    import tempfile
    good_serve = {
        "schema_version": 1, "figure": "serve_throughput",
        "env": good["env"], "tables": [], "metrics": good["metrics"],
        "serve": {
            "rows": 48, "seq_rows_per_sec": 370.0, "bit_identical": True,
            "runs": [
                {"workers": 1, "batch": 1, "rows_per_sec": 400.0,
                 "speedup_vs_sequential": 1.08, "mean_batch_width": 1.0,
                 "batched_forwards": 375, "degraded_rows": 0,
                 "bit_identical": True},
                {"workers": 1, "batch": 4, "rows_per_sec": 420.0,
                 "speedup_vs_sequential": 1.13, "mean_batch_width": 3.2,
                 "batched_forwards": 116, "degraded_rows": 0,
                 "bit_identical": True},
            ],
        },
    }
    bad_serves = [
        {**good_serve, "serve": {**good_serve["serve"],
                                 "bit_identical": False}},
        {**good_serve, "serve": {**good_serve["serve"], "runs": [
            {**good_serve["serve"]["runs"][1], "degraded_rows": 2}]}},
        {**good_serve, "serve": {**good_serve["serve"], "runs": [
            {**good_serve["serve"]["runs"][1], "mean_batch_width": 1.0}]}},
    ]
    with tempfile.TemporaryDirectory() as tmp:
        p = pathlib.Path(tmp) / "BENCH_8.json"
        p.write_text(json.dumps(good_serve))
        if check_serve(p):
            print("self-test FAILED: known-good serve sweep rejected",
                  file=sys.stderr)
            return False
        for i, bad in enumerate(bad_serves):
            p.write_text(json.dumps(bad))
            if not check_serve(p):
                print(f"self-test FAILED: known-bad serve sweep {i} accepted",
                      file=sys.stderr)
                return False

    print("self-test passed")
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="*", help="report files to validate")
    parser.add_argument("--scan", metavar="DIR",
                        help="also validate every BENCH_*.json under DIR")
    parser.add_argument("--self-test", action="store_true",
                        help="run the checker's own sanity checks")
    parser.add_argument("--compare-cache", metavar="FILE",
                        help="validate FILE and fail unless its cache_ablation"
                             " shows bit-identical decodes with the cached"
                             " path no more than 10%% slower than uncached")
    parser.add_argument("--compare-plan", metavar="FILE",
                        help="validate FILE and fail unless its plan_ablation"
                             " shows bit-identical decodes, table hits and"
                             " sliced queries observed, and fewer solver"
                             " propagations with the plan on")
    parser.add_argument("--compare-serve", metavar="FILE",
                        help="validate FILE and fail unless its serve sweep"
                             " shows every worker x batch configuration"
                             " bit-identical to the sequential decode with no"
                             " degraded rows and realized batching; a missing"
                             " FILE or a report without the block is a clear"
                             " skip")
    parser.add_argument("--compare-backend", metavar="FILE",
                        help="validate FILE and fail unless its"
                             " backend_ablation shows subprocess/degraded"
                             " decodes bit-identical to in-process with the"
                             " fallback ladder engaged; a missing FILE or a"
                             " report without the block is a clear skip")
    args = parser.parse_args()

    ok = True
    if args.self_test:
        ok = self_test() and ok

    if args.compare_cache:
        errors = check_cache_ablation(args.compare_cache)
        for e in errors:
            print(e, file=sys.stderr)
        ok = not errors and ok

    if args.compare_plan:
        errors = check_plan_ablation(args.compare_plan)
        for e in errors:
            print(e, file=sys.stderr)
        ok = not errors and ok

    if args.compare_serve:
        errors = check_serve(args.compare_serve)
        for e in errors:
            print(e, file=sys.stderr)
        ok = not errors and ok

    if args.compare_backend:
        errors = check_backend_ablation(args.compare_backend)
        for e in errors:
            print(e, file=sys.stderr)
        ok = not errors and ok

    files = [pathlib.Path(f) for f in args.files]
    if args.scan:
        files.extend(sorted(pathlib.Path(args.scan).rglob("BENCH_*.json")))
    if not files and not args.self_test and not args.compare_cache \
            and not args.compare_plan and not args.compare_serve \
            and not args.compare_backend:
        parser.error("nothing to do: pass files, --scan, --compare-cache, "
                     "--compare-plan, --compare-serve, --compare-backend, "
                     "or --self-test")

    for path in files:
        errors = check_file(path)
        if errors:
            ok = False
            for e in errors:
                print(e, file=sys.stderr)
        else:
            print(f"{path}: ok")

    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
