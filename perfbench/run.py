"""orblocal benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload roster|ladder --seed N \
        --seconds S --trace 0|1

Run it from the root of a source checkout; it imports orblocal from
``src/``.  Each workload runs in single-threaded worker processes
(``worker.py``), one at a time, each driven by one closed-loop caller.  An
untraced run splits its measuring time over a few workers, with set-up-only
workers between them, so that the set-up samples are spread over the whole
run; ``setup_s`` is their median.  Untraced, every time is corrected for
the host's speed during it (``hostspeed.py``).  With ``--trace 0`` the result carries
the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the per-layer
ones.  The line before the result holds the run's metadata; the last line
is the result.  Documents are written under ``.bench_work/`` and span logs
under ``.bench_out/`` in the checkout.  See DESIGN.md for the choices.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (workload classes; orblocal is imported by workers)

# setup_s is the median over worker starts, the measuring ones included:
# at least SETUP_STARTS of them, and more while they have taken less than
# SETUP_SECONDS, so that a set-up of 0.2 s still gets a steady median.
SETUP_STARTS = 7
SETUP_SECONDS = 5.0
DEADLINE_S = 170.0   # the whole run ends before this, or fails


class BenchError(Exception):
    pass


def git_revision():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def tail_percentile(min_ops: int) -> int:
    """The highest percentile with at least ten ops beyond it."""
    return max(50, min(99, math.floor(100 * (1 - 10 / min_ops))))


def start_worker(args, workdir: str, setup_only: bool, deadline: float,
                 seconds: float = 0.0, passes: int = 1):
    """Run one worker.

    Returns the set-up time, corrected for the host's speed, the raw
    seconds from start to READY, and the result (None when set-up only).
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--passes", str(passes),
           "--trace", str(args.trace), "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    if args.tiny:
        cmd.append("--tiny")
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.splitlines()
    ready = [ln for ln in lines if ln.startswith("READY ")]
    if proc.returncode != 0 or not ready:
        raise BenchError("worker exited with %d: %s" % (proc.returncode, err.strip()[-2000:]))
    at, factor, spent = (float(x) for x in ready[0].split()[1:4])
    raw = at - started
    setup = (raw - spent) * factor
    return setup, raw, None if setup_only else json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="a few inputs per workload, for the self-test")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "orblocal", "__init__.py")):
        print("no orblocal sources under %s/src: run from a source checkout" % ROOT,
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print("unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = os.path.join(ROOT, ".bench_work")
    workdir = os.path.join(work, "%s-%d" % (args.workload, os.getpid()))
    kind = workloads.WORKLOADS[args.workload]
    min_passes = 1 if args.tiny else kind.min_passes
    setups, raw_setups, results = [], [], []
    try:
        if args.trace:
            setup, raw, result = start_worker(args, workdir, False, deadline,
                                              args.seconds, 1)
            setups.append(setup)
            raw_setups.append(raw)
            results.append(result)
        else:
            # measuring workers, each with a share of the time and passes,
            # and set-up-only workers before each of them
            chunks = 1 if args.tiny else kind.chunks
            starts = 2 if args.tiny else SETUP_STARTS
            for k in range(1, chunks + 1):
                while (len(setups) < k * starts // chunks - 1
                       or (not args.tiny and sum(raw_setups) < k * SETUP_SECONDS / chunks)):
                    setup, raw, _ = start_worker(args, workdir, True, deadline)
                    setups.append(setup)
                    raw_setups.append(raw)
                setup, raw, result = start_worker(args, workdir, False, deadline,
                                                  args.seconds / chunks,
                                                  -(-min_passes // chunks))
                setups.append(setup)
                raw_setups.append(raw)
                results.append(result)
    except BenchError as e:
        print("benchmark failed: %s" % e, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work)
        except OSError:
            pass

    op_ms = sorted(t * 1000.0 for r in results for t in r["op_s"])
    pass_s = [t for r in results for t in r["pass_s"]]
    ops_per_pass = results[0]["ops_per_pass"]
    pct = tail_percentile(min_passes * ops_per_pass)
    figures = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.mean(pass_s),
        "op_p50_ms": statistics.median(op_ms),
        "op_tail_ms": statistics.quantiles(op_ms, n=100, method="inclusive")[pct - 1],
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
    }
    figures.update(results[0].get("layers", {}))
    metrics = {}
    for m in wanted:
        if m["name"] not in figures:
            print("metric %s was not measured" % m["name"], file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": figures[m["name"]], "unit": m["unit"]}

    attempted = sum(r["attempted"] for r in results)
    errors = [e for r in results for e in r["errors"]]
    failed = len(errors)
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "git_revision": git_revision(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "ops_per_pass": ops_per_pass, "passes": len(pass_s),
        "op_tail_percentile": pct,
        "error_rate": failed / attempted if attempted else None,
        "errors": errors[:20],
        "setup_samples_s": setups, "raw_setup_s": raw_setups, "pass_s": pass_s,
        "raw_pass_s": [t for r in results for t in r["raw_pass_s"]],
        "speed_factors": [f for r in results for f in r["speed_factors"]],
    }
    for key in ("untraced_passes", "traced_passes", "spans_recorded", "spans_dropped",
                "span_cost_s", "tracer_cost_s_per_layer"):
        if key in results[0]:
            meta[key] = results[0][key]
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
