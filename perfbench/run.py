#!/usr/bin/env python3
"""weylflow benchmark: one workload, closed loop, one process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a weylflow checkout; the package is imported from its
``src`` directory.  The workload's operations run one after another in
rounds until ``--seconds`` have passed (always whole rounds).  Before each
round, outside the timed region, the configs are parsed and the scenarios and
tables built afresh, so no round inherits state that the program keeps on
them from the one before.  Each round's outputs are checked outside the
timed region: the first round in full, later rounds by comparing output
digests with the first.  Times are scaled to a reference speed of the
machine (see ``machine_pace``).  The last line of stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The traced run times untraced rounds first, then
traces one more set-up and one round.  Spans and task outputs are left under
``.perfbench_out/``.
"""
import os

# One BLAS thread: the benchmark measures the single-process program on a
# small machine, and threads would add run-to-run noise.  Set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 9
PACE_REF_S = 2e-3       # time of the calibration loop at the reference speed
PACE_REPEATS = 5
WORKLOAD_NAMES = ("flow_curved", "flow_light", "curvature_census", "lorentz_gas")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only do the set-up, then exit (used to time set-up)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def setup(workload, seed):
    """Import weylflow and scipy, build scenarios and tables, parse configs."""
    sys.path.insert(0, str(SRC))
    import scipy  # noqa: F401
    import workloads
    return workloads, workloads.build_ops(workload, seed, OUT / workload)


def _calibration_loop():
    s = 0.0
    for i in range(20000):
        s += i * 0.5
    return s


def machine_pace():
    """Median time of a fixed pure-Python loop over its time at the reference
    speed: 1 at that speed, above 1 on a slower machine.

    The 2-vCPU VM the benchmark was tuned on switches between a slow and a
    fast speed, up to 40 % apart, for stretches of seconds to minutes.  Each
    timed span is divided by the mean pace measured right before and right
    after it, which leaves about 10 % of that swing (README, Steadiness)."""
    times = []
    for _ in range(PACE_REPEATS):
        t0 = perf_counter()
        _calibration_loop()
        times.append(perf_counter() - t0)
    return sorted(times)[PACE_REPEATS // 2] / PACE_REF_S


def time_setup(args):
    """Median wall time of fresh processes that do the set-up and exit.  Not
    paced: the set-up process may run on the other vCPU than the pace loop,
    and paced set-up times spread wider than plain ones."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def run_round(ops, tracer=None):
    """Run every operation once; returns (wall seconds per operation, the
    machine pace around each operation, outcomes).  An operation that raises
    yields its exception as the outcome."""
    gc.collect()
    times, paces, outcomes = [], [], []
    pace = machine_pace()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.run_id = f"{i}:{op.name}"
        t0 = perf_counter()
        try:
            outcomes.append(op.run())
        except Exception as exc:  # counted as a failed operation
            outcomes.append(exc)
        times.append(perf_counter() - t0)
        after = machine_pace()
        paces.append((pace + after) / 2)
        pace = after
    return times, paces, outcomes


class Ledger:
    """Attempted and failed operations; round-one digests and check results.
    An operation that raises or fails a check makes the run not correct."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests = None
        self.bad = set()
        self.reported = set()

    def _fail(self, op, message):
        self.failed += 1
        if (op.name, message) not in self.reported:
            self.reported.add((op.name, message))
            print(f"FAILED {op.name}: {message}", file=sys.stderr)

    def settle(self, ops, outcomes):
        """Check one round; the first round in full, later ones by digest."""
        self.attempted += len(outcomes)
        first = self.digests is None
        if first:
            self.digests = [None if isinstance(o, Exception) else o.digest
                            for o in outcomes]
        for i, (op, oc) in enumerate(zip(ops, outcomes)):
            if isinstance(oc, Exception):
                self._fail(op, "".join(traceback.format_exception_only(oc)).strip())
                continue
            if first:
                problems = op.check(oc)
                if problems:
                    self.bad.add(i)
                    self._fail(op, "; ".join(problems))
            elif oc.digest != self.digests[i]:
                self._fail(op, "output digest differs from the first round")
            elif i in self.bad:
                self._fail(op, "same output as the failed first round")


def round_work(workloads, outcomes):
    work = workloads.Work()
    for oc in outcomes:
        if not isinstance(oc, Exception):
            work.add(oc.work)
    return work


def metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(tracer, work, traced_wall, untraced_wall, rates):
    tot = tracer.layer_totals(lambda run_id: run_id != "setup")
    parse = tracer.layer_totals(lambda run_id: run_id == "setup")["cli.parse_config"]
    t = lambda name: tot[name]                                   # noqa: E731
    per = lambda num, den: num / den if den else 0.0             # noqa: E731
    steps_int = tracer.steps["flows.integrate"]
    steps_tan = tracer.steps["tangent.co_integration"]
    steps = steps_int + steps_tan
    chat = t("scenario.curvature_hat_tensor")
    m = {
        "rk4_steps_per_s": metric(rates["rk4_steps"], "steps/s"),
        "planes_per_s": metric(rates["planes"], "planes/s"),
        "collisions_per_s": metric(rates["collisions"], "collisions/s"),
        "cli.parse_config.us_per_call": metric(per(parse["total_s"], parse["calls"]) * 1e6, "us"),
        "cli.output.self_s": metric(t("cli.output")["self_s"], "s"),
        "cli.output.bytes": metric(work.bytes, "bytes"),
        "flows.integrate.calls": metric(t("flows.integrate")["calls"], "count"),
        "flows.integrate.self_s": metric(t("flows.integrate")["self_s"], "s"),
        "flows.integrate.us_per_step": metric(
            per(t("flows.integrate")["total_s"], steps_int) * 1e6, "us"),
        "tangent.co_integration.self_s": metric(t("tangent.co_integration")["self_s"], "s"),
        "tangent.co_integration.us_per_step": metric(
            per(t("tangent.co_integration")["total_s"], steps_tan) * 1e6, "us"),
        "tangent.steps": metric(steps_tan, "count"),
        "numpy.linalg.qr.calls": metric(t("numpy.linalg.qr")["calls"], "count"),
        "numpy.linalg.qr.self_s": metric(t("numpy.linalg.qr")["self_s"], "s"),
        "scenario.curvature_hat_tensor.calls": metric(chat["calls"], "count"),
        "scenario.curvature_hat_tensor.self_s": metric(chat["self_s"], "s"),
        "scenario.curvature_hat_tensor.us_per_call": metric(
            per(chat["total_s"], chat["calls"]) * 1e6, "us"),
        "scenario.curvature_hat_tensor.calls_per_step": metric(
            per(chat["calls"], steps), "calls/step"),
    }
    for name in ("scenario.christoffel", "scenario.field", "scenario.metric"):
        m[f"{name}.calls"] = metric(t(name)["calls"], "count")
        m[f"{name}.self_s"] = metric(t(name)["self_s"], "s")
    for name in ("geometry.sectional_weyl", "billiards.free_flight"):
        m[f"{name}.calls"] = metric(t(name)["calls"], "count")
        m[f"{name}.self_s"] = metric(t(name)["self_s"], "s")
        m[f"{name}.us_per_call"] = metric(per(t(name)["total_s"], t(name)["calls"]) * 1e6, "us")
    for name in ("billiards.pos_vel_scalar", "billiards.pos"):
        m[f"{name}.calls_per_collision"] = metric(
            per(t(name)["calls"], work.collisions), "calls/collision")
    for name in ("billiards.outside", "billiards.reflect", "billiards.run_billiard"):
        m[f"{name}.self_s"] = metric(t(name)["self_s"], "s")
    m["billiards.collisions_per_flight"] = metric(
        per(work.collisions, t("billiards.free_flight")["calls"]), "ratio")
    m["billiards.retries"] = metric(work.retries, "count")
    m["trace.overhead_s"] = metric(traced_wall - untraced_wall, "s")
    return m


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "weylflow" / "__init__.py").is_file():
        raise SystemExit(f"error: no weylflow sources under {SRC}")
    if args.setup_probe:
        setup(args.workload, args.seed)
        sys.stdout.flush()
        os._exit(0)       # skip interpreter teardown: it is not set-up time

    setup_s = None if args.trace else time_setup(args)
    workloads, ops = setup(args.workload, args.seed)
    ledger = Ledger()
    rounds, paces = [], []
    work = None
    t_start = perf_counter()
    while not rounds or perf_counter() - t_start < args.seconds:
        if rounds:      # fresh configs, scenarios and tables; not timed
            ops = workloads.build_ops(args.workload, args.seed, OUT / args.workload)
        times, round_paces, outcomes = run_round(ops)
        rounds.append(times)
        paces.append(round_paces)
        ledger.settle(ops, outcomes)
        if work is None:
            work = round_work(workloads, outcomes)
    # One round's time, as the sum of each operation's shortest paced time
    # over the rounds.  Within a run the machine's speed also jumps for a few
    # seconds at a time, faster than the pace can follow; the minimum keeps
    # those jumps out where a median would follow their share of the run.
    paced = [[t / p for t, p in zip(ts, ps)] for ts, ps in zip(rounds, paces)]
    wall_s = sum(min(op_times) for op_times in zip(*paced))
    wall_unscaled_s = sum(min(op_times) for op_times in zip(*rounds))
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds of {len(ops)} "
          f"operations, {wall_s:.4f} s per round ({wall_unscaled_s:.4f} s unscaled); "
          "rounds " + " ".join(f"{sum(r):.3f}" for r in rounds), file=sys.stderr)

    if not args.trace:
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "wall_s": metric(wall_s, "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                  "MB"),
        }
    else:
        import spans
        rates = {k: getattr(work, k) / wall_s for k in ("rk4_steps", "planes", "collisions")}
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced_ops = workloads.build_ops(args.workload, args.seed, OUT / args.workload)
            traced_times, traced_paces, outcomes = run_round(traced_ops, tracer)
        finally:
            tracer.uninstall()
        ledger.settle(traced_ops, outcomes)     # digests must match the untraced rounds
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"spans_{args.workload}_{args.seed}.json")
        traced_wall = sum(t / p for t, p in zip(traced_times, traced_paces))
        metrics = layer_metrics(tracer, round_work(workloads, outcomes),
                                traced_wall, wall_s, rates)
        metrics["wall_unscaled_s"] = metric(wall_unscaled_s, "s")
        all_paces = sorted(p for ps in paces for p in ps)
        metrics["machine_pace"] = metric(all_paces[len(all_paces) // 2], "ratio")

    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
