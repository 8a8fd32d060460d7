"""Smoke tests for the benchmark itself: python3 -m pytest perfbench/test_smoke.py"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

import checks
import run
import workload
from spans import Tracer

import duality_lab.cli as cli


def _bench_spec() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def test_corrupted_campaign_row_is_caught(tmp_path):
    prefix = str(tmp_path / "c")
    assert _cli(["campaign", "--scenario", "pure_pure", "--n", "3", "--trials", "5",
                 "--seed", "4", "--output", prefix]) == 0
    clean = checks.check_campaign(prefix, "pure_pure", 5)
    assert clean.ok, clean.problems
    assert clean.headroom > 0

    with open(prefix + ".csv", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cells = lines[3].split(",")
    cells[4] = repr(float(cells[4]) + 1e-6)  # coherence no longer matches duality_sum
    lines[3] = ",".join(cells)
    with open(prefix + ".csv", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    corrupted = checks.check_campaign(prefix, "pure_pure", 5)
    assert not corrupted.ok
    assert any("trial 2 duality_sum" in p for p in corrupted.problems)


def test_mixed_mixed_bound_excess_is_caught(tmp_path):
    prefix = str(tmp_path / "m")
    assert _cli(["campaign", "--scenario", "mixed_mixed", "--n", "3", "--trials", "4",
                 "--seed", "4", "--output", prefix]) == 0
    clean = checks.check_campaign(prefix, "mixed_mixed", 4)
    assert clean.ok, clean.problems

    with open(prefix + ".csv", encoding="utf-8") as fh:
        original = fh.read().splitlines()
    column = original[0].split(",").index("coherence_bound_margin")

    def with_margin(margin: str) -> checks.Check:
        lines = list(original)
        cells = lines[2].split(",")
        cells[column] = margin
        lines[2] = ",".join(cells)
        with open(prefix + ".csv", "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return checks.check_campaign(prefix, "mixed_mixed", 4)

    near = with_margin("-1e-13")  # past the bound, within its 1e-10 tolerance
    assert near.ok, near.problems
    assert abs(near.headroom - 3.0) < 1e-9  # log10(1e-10 / 1e-13)
    beyond = with_margin("-1e-9")
    assert any("trial 1 coherence_bound_margin" in p for p in beyond.problems)


def test_sweep_visibility_off_closed_form_is_caught(tmp_path):
    path = str(tmp_path / "s.csv")
    gammas = [0.1, 0.5, 0.9]
    assert _cli(["sweep", "--n", "3", "--gammas", "0.1,0.5,0.9", "--output", path]) == 0
    assert checks.check_sweep(path, 3, gammas).ok
    assert not checks.check_sweep(path, 2, gammas).ok  # three-slit V is not gamma


def _small_ops(outdir) -> list:
    ops = []
    for name in workload.WORKLOADS:
        ops.extend(workload.warm_up_op(op) for op in workload.make_ops(name, 5, outdir)[:2])
    return ops


def test_op_list_is_fixed_by_seed(tmp_path):
    for name in workload.WORKLOADS:
        first = workload.make_ops(name, 9, str(tmp_path))
        assert first == workload.make_ops(name, 9, str(tmp_path))
        assert first != workload.make_ops(name, 10, str(tmp_path))


def _traced_pass(outdir):
    tracer = Tracer()
    runner = workload.Runner(cli, _small_ops(outdir), tracer)
    record = runner.run_pass(traced=True)
    assert record.failed == 0, runner.problems
    return tracer, record


def test_spans_nest_and_self_times_add_up(tmp_path):
    tracer, record = _traced_pass(str(tmp_path))
    assert cli.main.__name__ == "main" and not hasattr(cli.main, "__wrapped__")
    spans = list(tracer.spans())
    own = tracer.self_times()
    roots = {}
    for i, (op, name, layer, parent, start, end) in enumerate(spans):
        assert 0 <= own[i] <= end - start
        if parent < 0:
            assert name == "cli.main" and op not in roots
            roots[op] = end - start
        else:
            p_op, _, _, _, p_start, p_end = spans[parent]
            assert p_op == op and p_start <= start <= end <= p_end
    assert len(roots) == len(record.op_seconds)
    per_op = dict.fromkeys(roots, 0)
    for i, span in enumerate(spans):
        per_op[span[0]] += own[i]
    assert per_op == roots
    names = {span[1] for span in spans}
    # bindings made with `from .x import` are traced too
    assert {"random.stream", "linalg.validate_density", "interference.scan_visibility",
            "duality.CampaignResult.to_csv", "states.DetectorSet.__post_init__"} <= names


def test_counts_repeat_exactly(tmp_path):
    first = _traced_pass(str(tmp_path))[0].summarize()
    second = _traced_pass(str(tmp_path))[0].summarize()
    for key in ("layer_calls", "name_calls", "intensity_in_scans", "partial_trace_bytes",
                "grid_points"):
        assert first[key] == second[key]
    assert first["intensity_in_scans"] > 0 and first["grid_points"] > 0


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric(trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "verify_single",
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=run.ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = _bench_spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    units = run.per_layer_units() if trace else {k: u for k, (u, _) in run.END_TO_END.items()}
    for name, unit in units.items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit for line in lines), name
