"""End-to-end benchmark of the query service: one command, three workloads.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload adhoc-large --seed 1 --seconds 20 --trace 0

For one ``--workload`` and ``--seed`` it

1. generates the database with ``repro.workload.generate_database`` and
   writes it as a CSV directory, outside any timed region;
2. builds the clients' op streams from the same seed and prints the input
   fingerprint (a hash of the CSV files and the op streams);
3. with ``--trace 0``: times set-up in fresh interpreters (the median of
   :data:`SETUP_SAMPLES`) and runs the workload process (``client.py``) for
   ``--seconds``; with ``--trace 1``: runs the workload untraced and then
   traced, for the per-layer numbers and the tracing overhead;
4. checks every answer (``oracle.py``), and prints a report followed by
   one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

``--smoke`` shrinks every database to a few dozen tuples per relation, for
the benchmark's own tests. Work files live in ``.e2ebench_work/`` under the
repository root and are removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import shutil
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from workloads import QUERIES, WORKLOADS, fingerprint, generate, op_streams  # noqa: E402

#: Fresh-interpreter set-ups per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Widest enclosure ``tight_share`` counts as tight: the degradation
#: ladder's own acceptance width (``QueryBudget.approx_epsilon``).
TIGHT_WIDTH = 0.01
#: Seconds any one child process may take.
CHILD_TIMEOUT = 150.0


def tail(values: list[float], percentile: float) -> tuple[float, str]:
    """(nearest-rank *percentile* of *values*, a note on its support).

    The note says how many samples lie beyond the percentile, and warns
    when fewer than ten do.
    """
    n = len(values)
    if n == 0:
        return 0.0, "no samples"
    k = min(n - 1, max(0, math.ceil(percentile / 100.0 * n) - 1))
    beyond = n - 1 - k
    note = f"p{percentile:g} of {n}, {beyond} beyond"
    if beyond < 10:
        note += " (fewer than 10: indicative only)"
    return sorted(values)[k], note


def child(args: list[str]) -> None:
    """Run one workload process to completion (it is always waited for)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "client.py"), *args],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"workload process failed ({proc.returncode}):\n{proc.stderr[-2000:]}"
        )


def run_workload(common: list[str], out: pathlib.Path, *extra: str) -> dict:
    child([*common, "--out", str(out), *extra])
    return json.loads(out.read_text())


def end_to_end(result: dict, setups: list[float], workload) -> tuple[dict, dict]:
    """The end-to-end metrics of one untraced run, plus report details."""
    log = result["log"]
    queries = [r for r in log if r["kind"] == "query"]
    writes = [r for r in log if r["kind"] == "write"]
    ok_queries = [r for r in queries if r["ok"]]
    answers = [a for r in ok_queries for a in r["answers"]]
    # A failed op misses any latency limit: it counts as infinitely slow.
    latencies = [r["lat"] * 1000 if r["ok"] else math.inf for r in queries]
    commits = [r["lat"] * 1000 if r["ok"] else math.inf for r in writes]
    failed = sum(1 for r in log if not r["ok"])
    q_tail, q_note = tail(latencies, workload.query_tail)
    c_tail, c_note = tail(commits, workload.commit_tail)
    widths = [a[2] - a[1] for a in answers]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_rps": (len(log) / result["window_s"], "1/s"),
        "latency_p50_ms": (statistics.median(latencies) if latencies else 0.0,
                           "ms"),
        "latency_tail_ms": (q_tail, "ms"),
        "commit_p50_ms": (statistics.median(commits) if commits else 0.0, "ms"),
        "commit_tail_ms": (c_tail, "ms"),
        "exact_share": (
            sum(1 for a in answers if a[1] == a[2]) / max(1, len(answers)),
            "share"),
        "tight_share": (
            sum(1 for w in widths if w <= TIGHT_WIDTH) / max(1, len(widths)),
            "share"),
        "ok_share": (1.0 - failed / max(1, len(log)), "share"),
        "rss_peak_mb": (result["rss_peak_mb"], "MB"),
    }
    details = {
        "latency_tail": f"{q_note} query requests",
        "commit_tail": f"{c_note} write transactions",
        "error_share": failed / max(1, len(log)),
        "width_mean": sum(widths) / max(1, len(widths)),
        "answers": len(answers),
        "window_s": result["window_s"],
        "setup_samples_s": setups,
    }
    return metrics, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny databases, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = ROOT / ".e2ebench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        return _run(args, workload, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it


def _run(args, workload, work: pathlib.Path) -> int:
    import repro.io
    from oracle import check

    db_dir = work / "db"
    db = generate(workload, args.seed, smoke=args.smoke)
    repro.io.save_database(db, db_dir)
    streams = op_streams(workload, db, args.seed, args.seconds)
    ops_file = work / "ops.json"
    ops_file.write_text(json.dumps(streams))
    print(f"workload {workload.name}  seed {args.seed}  "
          f"input fingerprint {fingerprint(db_dir, streams)}")
    common = ["--workload", workload.name, "--db", str(db_dir),
              "--ops", str(ops_file), "--seconds", str(args.seconds),
              "--seed", str(args.seed)]

    setups = []
    if not args.trace:
        for i in range(SETUP_SAMPLES - 1):
            r = run_workload(common, work / f"setup{i}.json", "--setup-only")
            setups.append(r["setup"]["setup_s"])
    result = run_workload(common, work / "run.json")
    setups.append(result["setup"]["setup_s"])
    runs = [result]
    traced = None
    if args.trace:
        traced = run_workload(common, work / "traced.json", "--trace")
        runs.append(traced)

    problems = []
    for r in runs:
        problems += [f"warm-up failed: {c}" for c in r["warmup_failed"]]
        problems += [f"client crashed: {e}" for e in r["client_errors"]]
    gate = check(db, result["log"], QUERIES, workload.oracle_samples, args.seed)
    problems += gate["failures"]
    if traced is not None:
        unfired = [f"wrapper never fired: {n}"
                   for n in traced["layers"]["unfired"]]
        # Smoke databases are too small to reach the deadline, so the
        # ladder's wrappers legitimately stay idle there.
        if args.smoke:
            print("\n".join(f"  note: {u}" for u in unfired))
        else:
            problems += unfired
        problems += check(
            generate(workload, args.seed, smoke=args.smoke), traced["log"],
            QUERIES, 0, args.seed,
        )["failures"]

    metrics, details = end_to_end(result, setups, workload)
    _report(workload, metrics, details, gate, problems)
    if traced is not None:
        layers = traced["layers"]
        overhead = (metrics["throughput_rps"][0]
                    / (len(traced["log"]) / traced["window_s"])) - 1.0
        layers["metrics"]["obs.trace_overhead"] = {"value": overhead,
                                                   "unit": "ratio"}
        _report_layers(layers)
        out_metrics = layers["metrics"]
    else:
        out_metrics = {k: {"value": float(v), "unit": u}
                       for k, (v, u) in metrics.items()}
    attempted = len(result["log"])
    failed = sum(1 for r in result["log"] if not r["ok"])
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": out_metrics,
    }))
    return 0 if not problems else 1


def _report(workload, metrics, details, gate, problems) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print("  " + next(w["why"] for w in spec["workloads"]
                      if w["name"] == workload.name))
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "latency_tail_ms":
            note = f"  ({details['latency_tail']})"
        elif name == "commit_tail_ms":
            note = f"  ({details['commit_tail']})"
        print(f"  {name:<18} {value:>12.4f} {unit}{note}")
    print(f"  {'error_share':<18} {details['error_share']:>12.4f} share")
    print(f"  {'width_mean':<18} {details['width_mean']:>12.3e} prob")
    print(f"  setup samples {['%.3f' % s for s in details['setup_samples_s']]} s;"
          f" window {details['window_s']:.2f} s; {details['answers']} answers")
    print(f"  correctness: {gate['answers_checked']} enclosures checked, "
          f"oracle {gate['oracle']} in {gate['seconds']:.1f} s, "
          f"{len(problems)} problems")
    for p in problems[:20]:
        print(f"    ! {p}")


def _report_layers(layers) -> None:
    print("  span accounting (count, busy ms, self ms, program-only self ms):")
    for name, row in layers["accounting"].items():
        print(f"    {name:<34} {row['count']:>7} {row['busy_ms']:>11.1f} "
              f"{row['self_ms']:>11.1f} {row['program_self_ms']:>11.1f}")
    print("  per-layer metrics:")
    for name, m in layers["metrics"].items():
        print(f"    {name:<48} {m['value']:>14.6g} {m['unit']}")


if __name__ == "__main__":
    try:
        code = main()
    except Exception as exc:  # no result line: the run did not complete
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = 2
    sys.exit(code)
