"""One benchmark workload in one fresh process (the child of run.py).

The op list is generated up front from the seed and fixed by count: the
same seed always yields the same argv lists, in the same order, with
every path count equally represented, so a faster commit runs exactly
the same ops. The child calls duality_lab.cli.main(argv) on each op in a
closed loop (one client, one process), repeating the whole list in
passes until --seconds have elapsed and at least MIN_PASSES passes ran.
Outputs are checked after each op, outside its timing.

Modes: ``setup`` times ``import duality_lab`` plus one warm-up op and
exits; ``run`` also measures the passes. With --trace 1 the passes
alternate untraced and traced, giving per-layer figures and the tracing
overhead from the same run. The result is one JSON line on stdout.

Nothing here imports numpy before the timed import of duality_lab.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import checks

MIN_PASSES = 3
#: hard stop for the measuring loop, well inside the 180 s run limit
MAX_LOOP_SECONDS = 120.0
TAIL_PERCENTILE = 90.0
#: trials per campaign op, the size of one path count's share of the
#: repo's 10^4-trial acceptance campaigns over n = 2..8
CAMPAIGN_TRIALS = 1000
#: trials of the campaign warm-up op that setup_s includes
WARM_UP_TRIALS = 20
#: ops are grouped into chunks of at least this much wall time, each rescaled
#: by the speed samples taken within it
CALIBRATE_EVERY_S = 0.25
#: a timer interrupts the running op this often to take one speed sample
SAMPLE_EVERY_S = 0.025
SAMPLE_ITERATIONS = 8
SETUP_ITERATIONS = 100
#: the per-iteration kernel time reported times are rescaled to: about the
#: fastest twentieth of samples on the 2-vCPU Xeon VM the bounds were set on
REFERENCE_NOMINAL_S = 50e-6


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple[str, ...]
    items: int
    output: str
    params: dict = field(default_factory=dict)


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(1, 2**31))


def _balanced(rng: random.Random, values, repeats: int) -> list:
    out = [v for v in values for _ in range(repeats)]
    rng.shuffle(out)
    return out


def _campaign(rng, outdir, scenario, n, trials) -> Op:
    prefix = os.path.join(outdir, "campaign")
    argv = ("campaign", "--scenario", scenario, "--n", str(n), "--trials", str(trials),
            "--seed", _seed(rng), "--output", prefix)
    return Op("campaign", argv, trials, prefix, {"scenario": scenario, "trials": trials})


def ops_campaign_mixed_mixed(rng, outdir) -> list[Op]:
    return [_campaign(rng, outdir, "mixed_mixed", n, CAMPAIGN_TRIALS)
            for n in _balanced(rng, range(2, 7), 1)]


def ops_campaign_light(rng, outdir) -> list[Op]:
    pure = _balanced(rng, range(2, 9), 1)
    mixed = _balanced(rng, range(2, 9), 1)
    ops = []
    for n_pure, n_mixed in zip(pure, mixed):
        ops.append(_campaign(rng, outdir, "pure_pure", n_pure, CAMPAIGN_TRIALS))
        ops.append(_campaign(rng, outdir, "mixed_pure", n_mixed, CAMPAIGN_TRIALS))
    return ops


def warm_up_op(op: Op) -> Op:
    """The op setup_s runs once: `op` itself, cut to WARM_UP_TRIALS if a campaign."""
    if op.kind != "campaign":
        return op
    argv = list(op.argv)
    argv[argv.index("--trials") + 1] = str(WARM_UP_TRIALS)
    return Op(op.kind, tuple(argv), WARM_UP_TRIALS, op.output,
              {**op.params, "trials": WARM_UP_TRIALS})


def ops_sweep_visibility(rng, outdir) -> list[Op]:
    # 60 sweeps (~30-50 ms) to 40 fringes (~13 ms): the median op falls
    # inside the n = 2 sweep mode, not in the gap between two modes
    kinds = [("sweep", 2)] * 30 + [("sweep", 3)] * 30 + [("fringe", 2)] * 20 + [("fringe", 3)] * 20
    rng.shuffle(kinds)
    ops = []
    for kind, n in kinds:
        if kind == "sweep":
            gammas = sorted(rng.random() for _ in range(11))
            path = os.path.join(outdir, "sweep.csv")
            argv = ("sweep", "--n", str(n), "--gammas", ",".join(repr(g) for g in gammas),
                    "--output", path)
            ops.append(Op("sweep", argv, len(gammas), path, {"n": n, "gammas": gammas}))
        else:
            gamma = rng.random()
            path = os.path.join(outdir, "fringe.csv")
            argv = ("fringe", "--n", str(n), "--gamma", repr(gamma), "--grid-points", "4096",
                    "--output", path)
            ops.append(Op("fringe", argv, 1, path, {"n": n, "gamma": gamma, "grid_points": 4096}))
    return ops


def ops_verify_single(rng, outdir) -> list[Op]:
    combos = [(s, n) for s in ("pure_pure", "mixed_pure", "mixed_mixed") for n in range(4, 9)]
    path = os.path.join(outdir, "verify.json")
    ops = []
    for scenario, n in _balanced(rng, combos, 10):
        argv = ("verify", "--scenario", scenario, "--n", str(n), "--seed", _seed(rng),
                "--output", path)
        ops.append(Op("verify", argv, 1, path, {"scenario": scenario, "n": n}))
    return ops


WORKLOADS = {
    "campaign_mixed_mixed": ops_campaign_mixed_mixed,
    "campaign_light": ops_campaign_light,
    "sweep_visibility": ops_sweep_visibility,
    "verify_single": ops_verify_single,
}


def make_ops(workload: str, seed: int, outdir: str) -> list[Op]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), outdir)


def check_op(op: Op) -> checks.Check:
    p = op.params
    if op.kind == "campaign":
        return checks.check_campaign(op.output, p["scenario"], p["trials"])
    if op.kind == "sweep":
        return checks.check_sweep(op.output, p["n"], p["gammas"])
    if op.kind == "fringe":
        return checks.check_fringe(op.output, p["n"], p["gamma"], p["grid_points"])
    return checks.check_verify(op.output, p["scenario"], p["n"])


def output_bytes(op: Op) -> int:
    paths = [op.output + ".csv", op.output + ".json"] if op.kind == "campaign" else [op.output]
    return sum(os.path.getsize(p) for p in paths)


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def reference_kernel(iterations: int) -> float:
    """Seconds per iteration of a fixed mix of small LAPACK calls and Python
    float formatting, the same kinds of work the ops do, without duality_lab."""
    import numpy as np

    mats = np.random.default_rng(0).standard_normal((iterations, 6, 6)) * (1 + 1j)
    t0 = time.perf_counter()
    total = 0.0
    for m in mats:
        q, _ = np.linalg.qr(m)
        w = np.linalg.eigvalsh(m @ m.conj().T).tolist()
        total += float(np.abs(q).sum()) + len(",".join(f"{v:.17g}" for v in w))
    return (time.perf_counter() - t0) / iterations


class Speedometer:
    """Samples the CPU speed the process gets while ops run.

    The host's speed changes within a second (another tenant takes the
    sibling hardware thread and back), so a sample taken between two
    one-second campaign ops says little about either. A SIGALRM timer
    therefore interrupts the main thread every SAMPLE_EVERY_S of wall time
    and times SAMPLE_ITERATIONS rounds of the reference kernel there. The
    wall and CPU time spent in the handler are summed, so the harness
    subtracts them from the op that was interrupted.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.handler_s = 0.0
        self.handler_cpu_s = 0.0
        self.busy = False

    def _sample(self, signum, frame) -> None:
        if self.busy:  # a late tick must not nest inside the sample it interrupts
            return
        self.busy = True
        c0 = time.process_time()
        t0 = time.perf_counter()
        self.samples.append(reference_kernel(SAMPLE_ITERATIONS))
        self.handler_s += time.perf_counter() - t0
        self.handler_cpu_s += time.process_time() - c0
        self.busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale_since(self, first: int) -> float:
        """REFERENCE_NOMINAL_S over the mean of the samples from index `first`
        on, less their fastest and slowest tenth: a sample that a preemption
        lands on reads up to ten times slow."""
        recent = sorted(self.samples[first:]) or [reference_kernel(SAMPLE_ITERATIONS)]
        cut = len(recent) // 10
        return REFERENCE_NOMINAL_S / statistics.fmean(recent[cut:len(recent) - cut])


@dataclass
class Pass:
    """Raw op times, less the time the Speedometer took from them, plus per
    op the scale of the op's chunk of the pass."""

    traced: bool
    op_seconds: list[float] = field(default_factory=list)
    op_cpu_seconds: list[float] = field(default_factory=list)
    scales: list[float] = field(default_factory=list)
    items: int = 0
    failed: int = 0
    output_bytes: int = 0
    headroom: float = math.inf

    @property
    def scaled_seconds(self) -> list[float]:
        return [t * s for t, s in zip(self.op_seconds, self.scales)]

    @property
    def items_per_s(self) -> float:
        return self.items / sum(self.scaled_seconds)

    @property
    def raw_items_per_s(self) -> float:
        return self.items / sum(self.op_seconds)

    @property
    def cpu_s_per_item(self) -> float:
        return sum(c * s for c, s in zip(self.op_cpu_seconds, self.scales)) / self.items


class Runner:
    def __init__(self, cli, ops: list[Op], tracer=None):
        self.cli = cli
        self.ops = ops
        self.tracer = tracer
        self.meter = Speedometer()
        self.problems: list[str] = []
        self.next_op_id = 0

    def run_op(self, op: Op, record: Pass | None) -> None:
        sink = io.StringIO()
        error = None
        if self.tracer is not None:
            self.tracer.op_id = self.next_op_id
        self.next_op_id += 1
        meter = self.meter
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            stolen, stolen_cpu = meter.handler_s, meter.handler_cpu_s
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                code = self.cli.main(list(op.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a raising op is a failed op, the run goes on
                code, error = None, traceback.format_exc(limit=3)
            t1 = time.perf_counter()
            c1 = time.process_time()
            stolen = meter.handler_s - stolen
            stolen_cpu = meter.handler_cpu_s - stolen_cpu
        if record is None:
            return
        record.op_seconds.append(t1 - t0 - stolen)
        record.op_cpu_seconds.append(c1 - c0 - stolen_cpu)
        record.items += op.items
        problems = []
        if code != 0:
            problems.append(f"exit {code!r}: {error or sink.getvalue()[-300:]}")
        else:
            try:
                check = check_op(op)
                problems = check.problems
                record.headroom = min(record.headroom, check.headroom)
                record.output_bytes += output_bytes(op) + len(sink.getvalue())
            except (OSError, ValueError, KeyError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        if problems:
            record.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{' '.join(op.argv)}: {'; '.join(problems[:3])}")

    def run_pass(self, traced: bool) -> Pass:
        record = Pass(traced=traced)
        if traced:
            self.tracer.install()
        self.meter.start()
        try:
            first = len(self.meter.samples)
            last = time.perf_counter()
            for i, op in enumerate(self.ops):
                self.run_op(op, record)
                if time.perf_counter() - last >= CALIBRATE_EVERY_S or i == len(self.ops) - 1:
                    scale = self.meter.scale_since(first)
                    record.scales.extend([scale] * (len(record.op_seconds) - len(record.scales)))
                    first, last = len(self.meter.samples), time.perf_counter()
        finally:
            self.meter.stop()
            if traced:
                self.tracer.uninstall()
        return record


def measure(runner: Runner, seconds: float, trace: bool) -> list[Pass]:
    passes: list[Pass] = []
    min_passes = 2 * MIN_PASSES if trace else MIN_PASSES
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        if time.perf_counter() - start > MAX_LOOP_SECONDS:
            break
        passes.append(runner.run_pass(traced=trace and len(passes) % 2 == 1))
    return passes


def op_times(per_pass: list[list[float]]) -> list[float]:
    """Each op's time, sorted: the median of its times over the passes.

    A momentary stall of the shared host lands on one repetition of an op
    and is dropped; a slow op is slow in every pass and stays.
    """
    return sorted(statistics.median(t[i] for t in per_pass) for i in range(len(per_pass[0])))


def end_to_end(passes: list[Pass]) -> tuple[dict, dict]:
    times = op_times([p.scaled_seconds for p in passes])
    beyond = len(times) - math.ceil(TAIL_PERCENTILE / 100.0 * len(times))
    attempted = sum(len(p.op_seconds) for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = {
        "items_per_s": statistics.median(p.items_per_s for p in passes),
        "op_p50_ms": 1e3 * statistics.median(times),
        "op_tail_ms": 1e3 * percentile(times, TAIL_PERCENTILE),
        "cpu_ms_per_item": 1e3 * statistics.median(p.cpu_s_per_item for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_op_ratio": (attempted - failed) / attempted,
        "accuracy_headroom_digits": min(min(p.headroom for p in passes), checks.HEADROOM_CAP),
    }
    notes = {"tail_percentile": TAIL_PERCENTILE, "tail_samples": len(times), "tail_beyond": beyond,
             "passes": len(passes),
             "failed_op_ratio": failed / attempted,
             "raw_items_per_s": statistics.median(p.raw_items_per_s for p in passes),
             "raw_op_p50_ms": 1e3 * statistics.median(op_times([p.op_seconds for p in passes])),
             "pass_items_per_s": [round(p.items_per_s, 1) for p in passes]}
    return metrics, notes


def per_layer(tracer, passes: list[Pass]) -> tuple[dict, dict]:
    """Per-layer metrics from the traced passes (span times are not
    rescaled); the overhead ratio compares untraced and traced passes."""
    from spans import LAYERS

    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    items = sum(p.items for p in traced)
    ops = sum(len(p.op_seconds) for p in traced)
    s = tracer.summarize()
    scans = s["name_calls"].get("interference.scan_visibility", 0)
    totals, calls = s["name_total_ns"], s["name_calls"]

    def per_scan(value):
        return value / scans if scans else 0.0

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_us_per_item"] = s["layer_self_ns"][layer] / 1e3 / items
        metrics[f"{layer}.calls_per_item"] = s["layer_calls"][layer] / items
    metrics.update({
        "random.stream_us_per_item": totals.get("random.stream", 0) / 1e3 / items,
        "linalg.validate_density_us_per_item":
            totals.get("linalg.validate_density", 0) / 1e3 / items,
        "linalg.validate_density_calls_per_item": calls.get("linalg.validate_density", 0) / items,
        "linalg.partial_trace_bytes_per_item": s["partial_trace_bytes"] / items,
        "interference.scan_us_per_call":
            per_scan(totals.get("interference.scan_visibility", 0) / 1e3),
        "interference.intensity_calls_per_scan": per_scan(s["intensity_in_scans"]),
        "interference.grid_points_per_scan": per_scan(s["grid_points"]),
        "duality.output_us_per_op": s["output_ns"] / 1e3 / ops,
        "cli.output_bytes_per_op": sum(p.output_bytes for p in traced) / ops,
        "trace.overhead_ratio": statistics.median(p.items_per_s for p in plain)
        / statistics.median(p.items_per_s for p in traced),
    })
    return metrics, {"spans": len(tracer.start), "traced_passes": len(traced),
                     "traced_items": items, "scans": scans}


def provenance(seed: int) -> dict:
    import numpy

    blas = None
    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}".strip()
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas,
        "seed": seed,
        "env": {k: os.environ.get(k) for k in
                ("DUALITY_LAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--src", required=True, help="directory holding the duality_lab package")
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    args = parser.parse_args(argv)

    ops = make_ops(args.workload, args.seed, args.outdir)
    t0 = time.perf_counter()
    import duality_lab.cli as cli

    warm = Runner(cli, ops)
    warm.run_op(warm_up_op(ops[0]), None)
    setup_s = time.perf_counter() - t0
    location = os.path.realpath(cli.__file__)
    if not location.startswith(os.path.realpath(args.src) + os.sep):
        print(f"duality_lab was imported from {location}, not from {args.src}", file=sys.stderr)
        return 2
    reference = statistics.median(reference_kernel(SETUP_ITERATIONS) for _ in range(3))
    result = {"setup_s": setup_s * REFERENCE_NOMINAL_S / reference, "raw_setup_s": setup_s}
    if args.mode == "run":
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
        runner = Runner(cli, ops, tracer)
        passes = measure(runner, args.seconds, bool(args.trace))
        attempted = sum(len(p.op_seconds) for p in passes)
        failed = sum(p.failed for p in passes)
        if args.trace:
            metrics, notes = per_layer(tracer, passes)
        else:
            metrics, notes = end_to_end(passes)
        result.update(attempted=attempted, failed=failed, metrics=metrics, notes=notes,
                      problems=runner.problems, provenance=provenance(args.seed))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
