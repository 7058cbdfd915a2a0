"""One workload in its own process: set-up, timed passes, optional trace.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --passes P --trace 0|1 --workdir DIR [--setup-only] [--tiny]

``run.py`` starts this and times it from process start to the ``READY``
line it prints after set-up, which carries the ``time.monotonic()`` clock,
the host-speed factor of the set-up and the time spent in reference bursts
(``hostspeed.py``).  The last line of output is one JSON object with the
figures: every op time, every pass time, the failures and the peak resident
memory.  Untraced, every time is corrected for the host's speed; the raw
pass times and the factors are reported beside them.  Passes
are whole: the worker runs at least ``--passes`` of them, and starts more
while at least half a pass of ``--seconds`` is left.  With ``--trace 1`` one counting
pass comes first, then untraced and traced passes take turns.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import hostspeed  # noqa: E402
import workloads  # noqa: E402


class Run:
    """Op times, pass times and failures of one run.

    With a ``hostspeed.Sampler``, time spent in its bursts is taken out of
    every op and pass.  A pass time is then multiplied by the host-speed
    factor over the pass, and an op time by the factor over the op and
    ``OP_MARGIN_S`` on either side, which holds several bursts even for the
    shortest op.
    """

    OP_MARGIN_S = 0.1

    def __init__(self, sampler=None):
        self.sampler = sampler
        self.op_s: list[float] = []
        self.pass_s: list[float] = []
        self.raw_pass_s: list[float] = []
        self.factors: list[float] = []
        self.attempted = 0
        self.errors: list[str] = []

    def _spent(self):
        return self.sampler.spent if self.sampler else 0.0

    def one_pass(self, workload, tracer=None, runners=None):
        clock = time.perf_counter
        start, spent0 = clock(), self._spent()
        op_s = []
        checking = 0.0  # verdict checks are not part of the pass time
        # inside the pass: roster's pass start rebuilds the corpus caches,
        # as `orblocal corpus run` does before its first scenario
        for op in workload.pass_ops():
            self.attempted += 1
            t0, s0 = clock(), self._spent()
            try:
                if tracer is None:
                    out = op.call()
                else:
                    tracer.op_id += 1
                    out = runners[op.layer](op.call)
            except Exception as e:  # noqa: BLE001 - an op that raises is a failure
                t1 = clock()
                op_s.append((t0, t1, t1 - t0 - (self._spent() - s0)))
                self.errors.append("%s: raised %s: %s" % (op.name, type(e).__name__, e))
                continue
            t1, s1 = clock(), self._spent()
            op_s.append((t0, t1, t1 - t0 - (s1 - s0)))
            if tracer is not None:  # a check may call orblocal; not traced
                tracer.on = False
            err = op.check(out)
            if tracer is not None:
                tracer.on = True
            if err:
                self.errors.append("%s: %s" % (op.name, err))
            checking += clock() - t1 - (self._spent() - s1)
        end = clock()
        raw = end - start - checking - (self._spent() - spent0)
        factor = self.sampler.factor(start, end) if self.sampler else 1.0
        self.raw_pass_s.append(raw)
        self.factors.append(factor)
        self.pass_s.append(raw * factor)
        m = self.OP_MARGIN_S
        self.op_s.extend(t * self.sampler.factor(t0 - m, t1 + m) if self.sampler else t
                         for t0, t1, t in op_s)

    def passes_until(self, workload, seconds, min_passes, **kw):
        """Run ``min_passes``, then more while one would end nearer ``seconds``.

        A further pass starts only while at least half a pass is left, so
        the time measured stays within half a pass of ``seconds``.
        """
        start = time.perf_counter()
        while (len(self.pass_s) < min_passes
               or time.perf_counter() - start
               + statistics.mean(self.pass_s) / 2 < seconds):
            self.one_pass(workload, **kw)


def _call(fn):
    return fn()


def traced_run(workload, seconds: float, root: str, name: str, seed: int):
    """A counting pass, then untraced and traced passes in turn.

    The passes alternate so that a change in the host's speed hits both
    kinds alike.  Returns the run (its untraced passes), the per-layer
    metrics, and metadata.
    """
    import orblocal
    import tracer as tracing

    counting = Run()
    products = tracing.count_products(orblocal, lambda: counting.one_pass(workload))
    cost = tracing.calibrate()
    tr = tracing.Tracer()
    # the span around each op, named for the layer whose code it runs
    runners = {"harness": tr.wrap("harness.op", "harness", _call),
               "corpus": tr.wrap("corpus.Scenario.run", "corpus", _call)}
    tracing.install(tr, orblocal)
    plain, traced = Run(), Run()
    start = time.perf_counter()
    pairs = 0
    # as in Run.passes_until: one more pair only while half a pair is left
    while not pairs or (time.perf_counter() - start) * (1 + 0.5 / pairs) < seconds:
        pairs += 1
        plain.one_pass(workload)
        tr.on = True
        traced.one_pass(workload, tracer=tr, runners=runners)
        tr.on = False
    layers, tracer_cost = tracing.layer_metrics(
        tr, len(traced.pass_s), sum(traced.pass_s), statistics.mean(plain.pass_s),
        cost, products)
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tr.write_spans(os.path.join(out_dir, "trace-%s-seed%d.txt.gz" % (name, seed)),
                   {"workload": name, "seed": seed, "passes": len(traced.pass_s),
                    "span_cost_s": cost, "tracer_cost_s_per_layer": tracer_cost})
    run = Run()
    run.attempted = plain.attempted + counting.attempted + traced.attempted
    run.errors = plain.errors + counting.errors + traced.errors
    run.pass_s = plain.pass_s
    run.raw_pass_s = plain.raw_pass_s
    run.factors = plain.factors
    run.op_s = plain.op_s
    return run, layers, {"untraced_passes": len(plain.pass_s),
                         "traced_passes": len(traced.pass_s),
                         "spans_recorded": len(tr.spans),
                         "spans_dropped": tr.spans_dropped,
                         "span_cost_s": cost,
                         "tracer_cost_s_per_layer": tracer_cost}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--passes", type=int, default=1, help="the fewest passes to run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    # the traced run's spans would count the bursts, so it goes without
    sampler = None if args.trace else hostspeed.Sampler()
    if sampler:
        sampler.start()
        started = time.perf_counter()
    import orblocal
    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(orblocal.__file__).startswith(src + os.sep):
        print("orblocal was imported from %s, not from %s" % (orblocal.__file__, src),
              file=sys.stderr)
        return 2
    os.makedirs(args.workdir, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir, args.tiny)
        ready = time.monotonic()
        if sampler:
            print("READY %.9f %.9f %.9f" % (ready, sampler.factor(started, time.perf_counter()),
                                            sampler.spent), flush=True)
        else:
            print("READY %.9f 1 0" % ready, flush=True)
        if args.setup_only:
            return 0
        extra = {}
        if args.trace:
            run, layers, extra = traced_run(workload, args.seconds, ROOT,
                                            args.workload, args.seed)
            extra["layers"] = layers
        else:
            run = Run(sampler)
            run.passes_until(workload, args.seconds, args.passes)
    finally:
        if sampler:
            sampler.stop()
        shutil.rmtree(args.workdir, ignore_errors=True)

    result = {
        "attempted": run.attempted,
        "errors": run.errors,
        "ops_per_pass": len(workload.pass_ops()),
        "op_s": run.op_s,
        "pass_s": run.pass_s,
        "raw_pass_s": run.raw_pass_s,
        "speed_factors": run.factors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    result.update(extra)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
