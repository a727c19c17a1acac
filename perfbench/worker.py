"""One child process of the benchmark: set up, run one pass, check, report.

    python3 perfbench/worker.py '<json config>'

The config names the workload, seed, size, the pass mode (``setup`` only,
``plain`` or ``traced``) and whether this pass runs the oracle checks.  The
child prints two JSON lines on stdout: ``{"ready": ...}`` once superkl is
imported and the inputs are generated, then ``{"result": ...}``.  Times
are on CLOCK_MONOTONIC, which every process on the machine shares, so the
parent can subtract its spawn time from ``ready``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import superkl  # noqa: E402
from superkl import canonical, cli  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DIGESTS = Path(__file__).resolve().parent / "digests.json"
DEFAULT_SEED = 0


def run_command(argv: list[str]) -> tuple[str, list[str]]:
    """Run one CLI command in-process; returns (stdout, failures)."""
    out, err = io.StringIO(), io.StringIO()
    failures = []
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        if rc != 0:
            failures.append(f"exit code {rc}")
    except SystemExit as exc:  # argparse rejected the command line
        failures.append(f"SystemExit({exc.code})")
    except Exception:  # a traceback: counted as a failed operation, never fatal
        failures.append(traceback.format_exc(limit=4))
    if err.getvalue():
        failures.append("stderr: " + err.getvalue().strip()[:300])
    return out.getvalue(), failures


def run_pass(workload: str, ops: list[dict], pins: dict, strict: bool, tracer,
             check: bool) -> dict:
    """Run every operation once; time each command; check outputs.

    ``pins`` maps command lines to output digests.  With ``strict`` (the
    default seed, where every command has a pin) a missing pin fails too.
    """
    latencies, windows, digests, failures = [], [], [], []
    failed_ops = set()
    outputs = []
    for run_id, op in enumerate(ops):
        if workload == "kl-queries":
            canonical.clear_caches()  # as a fresh CLI process would start
        t0 = time.perf_counter()
        if tracer is None:
            out, problems = run_command(op["argv"])
        else:
            tracer.run_id = run_id
            span = tracer.open("cli")
            out, problems = run_command(op["argv"])
            tracer.close(span)
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        windows.append((t0, t1))
        data = out.encode()
        if tracer is not None:
            tracer.add("cli.output_bytes", len(data))
        digest = hashlib.sha256(data).hexdigest()
        digests.append(digest)
        pinned = pins.get(op["label"])
        if pinned is None and strict:
            problems.append("no pinned digest at the default seed")
        elif pinned is not None and pinned != digest:
            problems.append("output digest differs from the pinned digest")
        if check and not problems:
            problems += oracle(workload, op, out)
        outputs.append(out if op["kind"] in checks.AFTER_PASS else None)
        if problems:
            failed_ops.add(run_id)
            failures += [{"op": op["label"], "problem": p} for p in problems]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if check:
        for run_id, (op, out) in enumerate(zip(ops, outputs)):
            if out is None or run_id in failed_ops:
                continue
            problems = checks.AFTER_PASS[op["kind"]](op, out)
            if problems:
                failed_ops.add(run_id)
                failures += [{"op": op["label"], "problem": p} for p in problems]
    return {"raw_latencies": latencies, "windows": windows,
            "digests": digests, "failures": failures,
            "failed_ops": len(failed_ops),
            "peak_rss_mb": peak_rss_mb,
            "pinned": sum(op["label"] in pins for op in ops)}


def oracle(workload: str, op: dict, out: str) -> list[str]:
    """Checks that need the caches of the query just run."""
    if workload != "kl-queries":
        return []
    problems = checks.touched_blocks() + checks.p_positive(op, out)
    if op.get("oracle"):
        problems += checks.kl_query(op, out)
    return problems


def main() -> int:
    config = json.loads(sys.argv[1])
    if not Path(superkl.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"superkl imported from {superkl.__file__}, not from this tree",
              file=sys.stderr)
        return 1
    ops, params = workloads.generate(config["workload"], config["seed"], config["size"])
    ready = time.monotonic()
    print(json.dumps({"ready": ready, "ops": len(ops), "params": params}), flush=True)
    if config["mode"] == "setup":
        return 0
    tracer = None
    if config["mode"] == "traced":
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
    pins = json.loads(DIGESTS.read_text())[config["size"]][config["workload"]]
    with speed.Speedometer() as meter:
        result = run_pass(config["workload"], ops, pins, config["seed"] == DEFAULT_SEED,
                          tracer, config["check"])
    windows = result.pop("windows")
    result["latencies"] = [raw * meter.factor(t0, t1)
                           for raw, (t0, t1) in zip(result["raw_latencies"], windows)]
    result["items"] = sum(op["items"] for op in ops)
    if tracer is not None:
        restore()
        scale = meter.factor(windows[0][0], windows[-1][1])
        times = {name: t * scale for name, t in tracer.self_seconds().items()}
        times["canonical.stable_window_total_s"] = scale * tracer.inclusive_seconds(
            "canonical.stable_window")
        result["self_sum_s"] = sum(times.values()) - times["canonical.stable_window_total_s"]
        result["layers"] = {**times, **tracer.counts, "trace.spans": len(tracer.start)}
        tracer.write(config["spans_path"])
    print(json.dumps({"result": result}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
