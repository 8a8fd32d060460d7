"""duality-lab benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py                      # all four workloads, then a traced run of each
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs in a fresh child process (perfbench/workload.py) that
calls the public entry point duality_lab.cli.main(argv) on an op list
generated from --seed, checks every op's output, and reports back. The
child runs with DUALITY_LAB_THREADS unset and OPENBLAS_NUM_THREADS =
OMP_NUM_THREADS = 1; op outputs go to a temporary directory inside the
checkout that is removed afterwards. The package is imported from the
checkout's src/ directory; without it the benchmark exits with status 2.

With --trace 0 the last line of stdout is a JSON object holding every
end-to-end metric; with --trace 1 it holds the per-layer metrics of a
run whose passes alternate untraced and traced (spans are recorded by
perfbench/spans.py around every public function of each module).

Reported times are rescaled to a reference speed. On the 2-vCPU VM the
bounds were set on, the CPU speed a process gets changes within a
second (the host is shared), by up to 2x, and no statistic taken inside
one run removes that: raw items/s of runs a minute apart spread 11-33 %
as a share of the median. So while ops run, a timer interrupts the
child every 25 ms and times a few rounds of a fixed reference kernel
(small LAPACK calls and float formatting, no duality_lab code); the time
those samples take is subtracted from the op they interrupted. Ops are
grouped into chunks of at least 0.25 s (a campaign op is a chunk of its
own), and each op's wall and CPU time is multiplied by
REFERENCE_NOMINAL_S / (mean sample in its chunk, less the fastest and
slowest tenth of them); setup_s is rescaled by the kernel time in the
same process. Kernel samples taken only between ops left one-second
campaign ops spread 11-15 %; samples taken inside them bring every
spread to 2-6 %. The kernel does not change with the program, so two
commits are compared at one reference speed. The raw figures are
printed in the notes (raw_items_per_s, raw_op_p50_ms, raw_setup_s);
span times in the traced run are not rescaled and include the samples
(2-3 % of the time).

Every pass runs the same op list, so each op has one time per pass; an
op's time is the median of those. op_p50_ms and op_tail_ms (p90) are
taken over the op list, so they show the slow ops (large n, large
detector dimension), not the moments at which the shared host stalled.
Pooled over every repetition, the p98 of verify_single spread 6-23 %
between runs; per-op medians spread 2-3 %. With 100 and 150 ops, the
sweep and verify tails have 10 and 15 ops beyond them. The campaign
lists are short (5 and 14 ops of 1000 trials), so there the p90 is the
slowest and the second slowest op, each the median of its passes; the
notes record how many ops lie beyond the tail.

Workloads (closed loop, one client, one process; an item is one trial,
one gamma point, or one verified configuration):

* campaign_mixed_mixed  heaviest trials: Haar QR and eigh in random/linalg,
  validation loops in states, per-branch loops in measures. One op per
  n = 2..6, 1000 trials each.
* campaign_light        pure_pure and mixed_pure in turn: stream setup, object
  construction and validation, the partial trace, CSV/JSON output. One
  op per scenario and n = 2..8, 1000 trials each.
* sweep_visibility      gamma sweeps and fringe scans at n = 2, 3: dominated by
  interference.scan_visibility; random is bypassed. V is checked against
  V = gamma and V = 3 gamma / (2 + gamma).
* verify_single         one verify call per op, n = 4..8, all scenarios: CLI,
  config and validation overhead per call, no visibility.

Campaign ops have 1000 trials because that is one path count's share of
the repo's 10^4-trial acceptance campaigns over n = 2..8, and because at
that size the per-op cost (argument parsing, file output) no longer
weighs on the per-trial figure: on the 2-vCPU VM, mixed_mixed cost 1.53,
1.28 and 1.26 ms per trial at 20, 200 and 1000 trials per op, pure_pure
0.76, 0.45 and 0.44 ms. A (n, dim) group that a batched kernel would
stack then holds about 1000 / (n + 1) trials, and peak_rss_mb sees the
memory of a whole campaign.

Deliberately not measured:

* tier-1 test wall time is not a workload: the hypothesis database makes it
  unsteady, and its cost is the acceptance campaigns the two campaign
  workloads already cover. The 10/20/60 s acceptance gates stay as they are.
* pytest-benchmark is not used: it is installed but undeclared, so the
  benchmark stays stdlib plus numpy.

failed_op_ratio is printed but the JSON carries ok_op_ratio = 1 -
failed_op_ratio, because an end-to-end metric that reads 0 cannot be
bounded as a share of its median. Per-layer metrics carry no bound, so
every one is in the JSON line, also where it reads 0 because the
workload never calls its layer (random.* on sweep_visibility,
interference.* on the campaigns and verify_single).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

from spans import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("campaign_mixed_mixed", "campaign_light", "sweep_visibility", "verify_single")
DEFAULT_SECONDS = 20
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170.0

END_TO_END = {
    "items_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
    "cpu_ms_per_item": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_op_ratio": ("ratio", "higher"),
    "accuracy_headroom_digits": ("digits", "higher"),
}

LAYER_UNITS = {"self_us_per_item": "us", "calls_per_item": "count"}
PER_LAYER_EXTRA = {
    "random.stream_us_per_item": "us",
    "linalg.validate_density_us_per_item": "us",
    "linalg.validate_density_calls_per_item": "count",
    "linalg.partial_trace_bytes_per_item": "B",
    "interference.scan_us_per_call": "us",
    "interference.intensity_calls_per_scan": "count",
    "interference.grid_points_per_scan": "count",
    "duality.output_us_per_op": "us",
    "cli.output_bytes_per_op": "B",
    "trace.overhead_ratio": "ratio",
}
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def per_layer_units() -> dict:
    units = {}
    for layer in LAYERS:
        for suffix, unit in LAYER_UNITS.items():
            units[f"{layer}.{suffix}"] = unit
    units.update(PER_LAYER_EXTRA)
    return units


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "DUALITY_LAB_THREADS"}
    env.update(CHILD_ENV)
    env["PYTHONPATH"] = SRC
    return env


def run_child(workload: str, seed: int, seconds: float, trace: int, outdir: str,
              mode: str, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--outdir", outdir, "--src", SRC, "--mode", mode]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} child exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one; never looks above ROOT."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload; return {"metrics", "units", "attempted", "failed", ...}."""
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as outdir:
        if trace:
            result = run_child(workload, seed, seconds, 1, outdir, "run", deadline)
            units = per_layer_units()
        else:
            probes = [run_child(workload, seed, seconds, 0, outdir, "setup", deadline)
                      for _ in range(SETUP_SAMPLES - 1)]
            result = run_child(workload, seed, seconds, 0, outdir, "run", deadline)
            probes.append(result)
            result["metrics"]["setup_s"] = statistics.median(p["setup_s"] for p in probes)
            result["notes"]["raw_setup_s"] = statistics.median(p["raw_setup_s"] for p in probes)
            units = {name: unit for name, (unit, _) in END_TO_END.items()}
    result["provenance"]["commit"] = git_commit()
    result["units"] = units
    return result


def print_report(workload: str, result: dict, trace: int) -> None:
    notes = result["notes"]
    print(f"== {workload}  trace={trace}  ops={result['attempted']}  failed={result['failed']}  "
          f"notes={json.dumps(notes)}")
    for name, unit in result["units"].items():
        value = result["metrics"][name]
        suffix = ""
        if name == "op_tail_ms":
            suffix = (f"  (p{notes['tail_percentile']:g} of {notes['tail_samples']} ops, "
                      f"{notes['tail_beyond']} beyond, each the median of {notes['passes']} passes)")
        if trace == 0:
            suffix += f"  [{END_TO_END[name][1]} is better]"
        print(f"  {name:<42} {value:>16.6g} {unit}{suffix}")
    if trace == 0:
        print(f"  {'failed_op_ratio':<42} {notes['failed_op_ratio']:>16.6g} ratio  [lower is better]")
    print(f"  provenance {json.dumps(result['provenance'])}")
    for problem in result["problems"]:
        print(f"  FAILED OP {problem}", file=sys.stderr)


def json_line(result: dict, prefix: str = "") -> dict:
    return {f"{prefix}{name}": {"value": result["metrics"][name], "unit": unit}
            for name, unit in result["units"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="duality-lab benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(default: both, for --workload all)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "duality_lab", "cli.py")):
        print(f"error: no duality_lab package under {SRC}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (args.trace,) if args.trace is not None else ((0, 1) if args.workload == "all" else (0,))
    line = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for trace in traces:
            for workload in workloads:
                result = run_workload(workload, args.seed, args.seconds, trace)
                print_report(workload, result, trace)
                line["attempted"] += result["attempted"]
                line["failed"] += result["failed"]
                prefix = "" if len(workloads) == 1 and len(traces) == 1 else f"{workload}/"
                line["metrics"].update(json_line(result, prefix))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    line["correct"] = line["failed"] == 0
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
