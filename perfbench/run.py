"""The superkl benchmark: seeded workloads timed end to end and per layer.

    python3 perfbench/run.py --workload canonical-context --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0      # one row per workload
    python3 perfbench/run.py --selftest                   # tiny sizes, a few seconds

Run it from the root of a source tree; it imports superkl from ``src/``.
The load is a closed loop from one client: one child process at a time,
no threads.  Each pass runs a workload's commands once, in a fresh child
(``worker.py``), so caches start cold and peak RSS is per pass.  Passes
repeat until ``--seconds`` is used up; each metric is the median over
passes, and latency percentiles pool every command of every pass.

End-to-end metrics (``--trace 0``); times are scaled to a reference host
speed (``speed.py``), and the run record keeps the raw wall times too:
  setup_s       child start, ``import superkl`` and input generation; the
                median over every child of the run, passes and set-up probes
  run_s         one pass: the sum of its timed commands
  items_per_s   basis vectors, queries or commands of a pass, per run_s
  query_p50_ms, query_p90_ms
                latency of one command, pooled over the passes
  peak_rss_mb   ru_maxrss of a pass's child, over the passes after the
                first, which alone runs the oracle checks
``failed_ratio`` (failed / attempted operations) is printed in the table
and the run record; the result line carries it as ``failed``/``attempted``.

With ``--trace 1`` untraced and traced passes alternate.  The metrics are
the layers' self times and counts from ``tracing.py`` (medians over traced
passes) and ``trace.overhead_s``, traced run_s minus untraced run_s.

An operation fails on a non-zero exit, a JSON error on stderr, an uncaught
exception, an output digest that differs from ``digests.json`` or from the
first pass, or a failed oracle check (``checks.py``, first pass only).
Failures are counted, never fatal.  Each run writes a record with the git
SHA, Python version, nproc and the workload parameters to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
SETUP_PROBES = 5       # set-up-only children per run, besides the passes
DEADLINE_S = 150       # every run ends well inside 180 s


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    values = sorted(values)
    pos = (len(values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


class Child:
    """Spawn worker.py and collect its two JSON lines."""

    def __init__(self, config: dict, deadline: float):
        self.config = config
        # a persisted psi memo would change timings and could mask wrong answers
        env = {k: v for k, v in os.environ.items() if k != "SUPERKL_CACHE_DIR"}
        self.speed = speed.speed_now()
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), json.dumps(config)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        try:
            out, err = self.proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, err = self.proc.communicate()
            err += "\nkilled at the run deadline"
        except BaseException:  # interrupted: leave no child behind
            self.proc.kill()
            self.proc.wait()
            raise
        self.wall = time.monotonic() - self.spawned
        self.ready, self.result = None, None
        for line in out.splitlines():
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                err += f"\nstray stdout: {line[:200]}"
                continue
            self.ready = doc if "ready" in doc else self.ready
            self.result = doc["result"] if "result" in doc else self.result
        self.error = None
        if self.proc.returncode != 0 or self.ready is None or (
                config["mode"] != "setup" and self.result is None):
            self.error = f"worker exit {self.proc.returncode}: {err.strip()[-500:]}"


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str) -> dict:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    base = {"workload": workload, "seed": seed, "size": size}
    children, passes = [], []
    for _ in range(SETUP_PROBES):
        children.append(Child({**base, "mode": "setup", "check": False}, deadline))
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"spans_{workload}_seed{seed}_{size}.json.gz"
    while True:
        traced = trace and len(passes) % 2 == 1
        child = Child({**base, "mode": "traced" if traced else "plain",
                       "check": not passes, "spans_path": str(spans_path)}, deadline)
        children.append(child)
        passes.append((traced, child))
        elapsed = time.monotonic() - start
        # the next pass may run slower than this one on a busy machine; the
        # second pass is the first without oracle checks (or the first traced)
        if child.error or (len(passes) >= 2 and elapsed + 1.25 * child.wall > seconds):
            break
    return summarize(workload, seed, size, trace, children, passes)


def summarize(workload, seed, size, trace, children, passes) -> dict:
    # a child that failed counts every operation it should have run
    failures = [{"op": "(worker)", "problem": c.error} for c in children if c.error]
    ops = next((c.ready["ops"] for c in children if c.ready), 1)
    attempted = failed = 0
    for child in children:
        if child.config["mode"] == "setup" and child.error:
            attempted += 1
            failed += 1
    plain, plain_unchecked, traced = [], [], []
    first_digests = None
    for is_traced, child in passes:
        if child.result is None:
            attempted += ops
            failed += ops
            continue
        res = child.result
        attempted += len(res["latencies"])
        failed += res["failed_ops"]
        failures += res["failures"]
        if first_digests is None:
            first_digests = res["digests"]
        differ = sum(a != b for a, b in zip(res["digests"], first_digests))
        if differ:
            failed += differ
            failures.append({"op": "(pass)",
                             "problem": f"{differ} outputs differ from the first pass"})
        (traced if is_traced else plain).append(res)
        if not is_traced and not child.config["check"]:
            plain_unchecked.append(res)
    metrics = {}
    raw_setups = [(c.ready["ready"] - c.spawned, c.speed) for c in children if c.ready]
    if plain:
        run_s = statistics.median(sum(r["latencies"]) for r in plain)
        latencies_ms = [x * 1e3 for r in plain for x in r["latencies"]]
        metrics = {
            "setup_s": statistics.median(raw * factor for raw, factor in raw_setups),
            "run_s": run_s,
            "items_per_s": plain[0]["items"] / run_s,
            "query_p50_ms": percentile(latencies_ms, 0.5),
            "query_p90_ms": percentile(latencies_ms, 0.9),
        }
    if plain_unchecked:
        # kl-queries runs its oracles between queries, before ru_maxrss is read
        metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in plain_unchecked)
    layers, accounting = {}, {}
    if traced and plain:
        for name in traced[0]["layers"]:
            layers[name] = statistics.median(r["layers"][name] for r in traced)
        traced_run_s = statistics.median(sum(r["latencies"]) for r in traced)
        layers["trace.overhead_s"] = traced_run_s - metrics["run_s"]
        # every command is one root span, so the self times of a traced pass
        # add up to its run_s, and differ from the untraced run_s by the overhead
        accounting = {"self_sum_s": statistics.median(r["self_sum_s"] for r in traced),
                      "traced_run_s": traced_run_s, "untraced_run_s": metrics["run_s"]}
    params = next((c.ready["params"] for c in children if c.ready), {})
    record = {
        "workload": workload, "seed": seed, "size": size, "trace": trace,
        "git_sha": git_sha(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "params": params,
        "passes": len(passes),
        "pass_run_s": [sum(r["latencies"]) for r in plain],
        "traced_pass_run_s": [sum(r["latencies"]) for r in traced],
        "raw": {"pass_run_s": [sum(r["raw_latencies"]) for r in plain],
                "setup_s": [raw for raw, _ in raw_setups]},
        "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted if attempted else 1.0,
        "metrics": metrics, "layers": layers, "accounting": accounting,
        "pinned_ops_per_pass": max((r["pinned"] for r in plain + traced), default=0),
        "failures": failures[:50],
    }
    tag = f"{workload}_seed{seed}_trace{int(trace)}_{size}"
    (RESULTS / f"BENCH_{tag}.json").write_text(json.dumps(record, indent=1))
    return record


def git_sha() -> str:
    """HEAD of the tree's git metadata, read from files; "unknown" without it."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = git / name
        if path.exists():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def print_row(record: dict, units: dict) -> None:
    values = {**record["metrics"], **record["layers"], "failed_ratio": record["failed_ratio"]}
    units = {**units, "failed_ratio": "ratio"}
    cells = [f"{name}={values[name]:.6g} {units[name]}" for name in units if name in values]
    print(f"{record['workload']:<18} passes={record['passes']:<3} " + "  ".join(cells))
    acc = record["accounting"]
    if acc:
        print(f"{'':<18} layer self times sum to {acc['self_sum_s']:.4f} s; traced run_s "
              f"{acc['traced_run_s']:.4f} s, untraced {acc['untraced_run_s']:.4f} s")


def result_line(records: list[dict], trace: bool, units: dict, prefix: bool) -> dict:
    metrics = {}
    for rec in records:
        values = rec["layers"] if trace else rec["metrics"]
        for name, unit in units.items():
            if name in values:
                key = f"{rec['workload']}:{name}" if prefix else name
                metrics[key] = {"value": values[name], "unit": unit}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    complete = len(metrics) == len(units) * len(records)
    return {"correct": failed == 0 and complete,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def load_units(trace: bool) -> dict:
    return {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}


def selftest() -> int:
    """Every workload, plain and traced, at tiny size: all metrics present."""
    failed = False
    for trace in (False, True):
        units = load_units(trace)
        for workload in WORKLOADS:
            rec = run_workload(workload, 0, 1, trace, "tiny")
            print_row(rec, units)
            line = result_line([rec], trace, units, False)
            if not line["correct"]:
                failed = True
                missing = sorted(set(units) - set(line["metrics"]))
                print(f"SELFTEST FAIL {workload} trace={trace}: missing {missing}, "
                      f"failures {rec['failures'][:3]}")
    print("selftest", "failed" if failed else "passed")
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "superkl" / "__init__.py").is_file():
        print(f"no superkl source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest()
    units = load_units(bool(args.trace))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for workload in names:
        rec = run_workload(workload, args.seed, args.seconds, bool(args.trace), "full")
        print_row(rec, units)
        for f in rec["failures"][:5]:
            print(f"  FAILED {f['op'][:80]}: {f['problem'][:200]}")
        records.append(rec)
    print(json.dumps(result_line(records, bool(args.trace), units, len(names) > 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
