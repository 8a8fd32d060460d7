import argparse
import contextlib
import io
import json
import os
import shlex
import stat
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duality_lab import cli, duality, linalg, states
from duality_lab.cli import main
from duality_lab.random import (
    random_density,
    random_density_matrix,
    random_detectors,
    random_mixed_detector,
    random_pure,
)
from test_readme import CLI_LINES


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------- verify

def test_verify_two_path_gamma(capsys):
    code, out, _ = _run(capsys, ["verify", "--n", "2", "--scenario", "pure_pure", "--gamma", "0.6"])
    assert code == 0
    data = json.loads(out)
    assert data["coherence"] == pytest.approx(0.6, abs=1e-9)
    assert data["distinguishability"] == pytest.approx(0.4, abs=1e-9)
    assert data["visibility"] == pytest.approx(0.6, abs=1e-8)
    assert data["passed"] is True


def test_verify_three_path_orthogonal(capsys):
    code, out, _ = _run(capsys, ["verify", "--n", "3", "--scenario", "pure_pure", "--gamma", "0"])
    assert code == 0
    data = json.loads(out)
    assert data["coherence"] == pytest.approx(0.0, abs=1e-9)
    assert data["distinguishability"] == pytest.approx(1.0, abs=1e-9)


def test_verify_explicit_amplitudes(capsys):
    code, out, _ = _run(capsys, [
        "verify", "--scenario", "pure_pure", "--amplitudes", "0.6,0.8", "--gamma", "0.5", "--n", "2",
    ])
    assert code == 0
    data = json.loads(out)
    # C = 2 |c1 c2| gamma = 2 * 0.48 * 0.5
    assert data["coherence"] == pytest.approx(0.48, abs=1e-9)


def test_verify_mixed_scenarios_with_seed(capsys):
    for scenario in ("mixed_pure", "mixed_mixed"):
        code, out, _ = _run(capsys, ["verify", "--n", "3", "--scenario", scenario, "--seed", "5"])
        assert code == 0
        assert json.loads(out)["passed"] is True


# (n, detector dimension, --rank or None, config rho's rank or None): every n
# at dim 1, below n, at n and above it; drawn quanton ranks at both ends; and
# config rhos of full and deficient rank
_MIXED_MIXED_VERIFIES = list(dict.fromkeys(
    [(n, dim, None, None) for n in range(2, 9) for dim in (1, n // 2 or 1, n - 1, n, 2 * n)]
    + [(n, dim, rank, None) for n in (2, 5, 8) for dim in (1, n - 1, n + 1) for rank in (1, n)]
    + [(n, dim, None, rank) for n in (2, 3, 4) for dim in (1, 2, n + 1) for rank in (1, n)]))


def _csv_cell(value):
    """A report value as _write_csv formats it, written out independently."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, str)):
        return str(value)
    return "%.17g" % value


def _verify_outputs(report, seed):
    """What `verify --seed seed` writes for `report`, as JSON and as CSV,
    each formatted independently: the JSON by the stdlib encoder, and the
    CSV row cell by cell."""
    cells = {**report.to_dict(), **report.relation_residuals, "seed": seed}
    row = ",".join(_csv_cell(cells.get(column)) for column in cli.VERIFY_CSV_COLUMNS)
    return json.dumps(report.to_dict(), indent=2) + "\n", ",".join(cli.VERIFY_CSV_COLUMNS) + f"\n{row}\n"


@pytest.mark.parametrize("n, dim, rank, rho_rank", _MIXED_MIXED_VERIFIES,
                         ids=[f"n{n}-dim{dim}-rank{rank}-rho{rho}" for n, dim, rank, rho in _MIXED_MIXED_VERIFIES])
def test_mixed_mixed_verify_equals_the_interaction_it_completes_to(capsys, tmp_path, n, dim, rank, rho_rank):
    """`verify --scenario mixed_mixed` passes the branches it draws to the
    kernel as they are. Its JSON and CSV equal, bit for bit, the report of
    the oracle: evaluate_mixed_detector on the interaction that
    random_mixed_detector completes from the same generator, whose branches
    the kernel takes through states._branches' eigh. Not a golden digest, so
    it holds on every numpy."""
    seed = 10 * n + dim
    argv = ["verify", "--scenario", "mixed_mixed", "--n", str(n), "--seed", str(seed), "--detector-dim", str(dim)]
    if rho_rank is not None:
        rho = random_density_matrix(n, rho_rank, seed).matrix
        (tmp_path / "cfg.json").write_text(json.dumps({"rho": [[[z.real, z.imag] for z in row] for row in rho]}))
        argv += ["--config", str(tmp_path / "cfg.json")]
        quanton = states.MixedQuanton(rho=linalg.validate_density(rho))
    else:
        argv += [] if rank is None else ["--rank", str(rank)]
        rng = np.random.default_rng([seed, 0])
        quanton = random_density(n, rank or int(rng.integers(1, n, endpoint=True)), rng)
    report = duality.evaluate_mixed_detector(quanton, random_mixed_detector(n, dim, np.random.default_rng([seed, 1])),
                                             include_visibility=n <= duality.VISIBILITY_MAX_PATHS)
    report_json, report_csv = _verify_outputs(report, seed)
    assert _run(capsys, argv) == (0, report_json, "")
    assert _run(capsys, [*argv, "--format", "csv"]) == (0, report_csv, "")


def test_mixed_mixed_verify_builds_no_interaction(capsys, monkeypatch):
    """A mixed_mixed `verify` evaluates the branches it draws: it builds no
    MixedDetectorInteraction and runs neither states._branches nor any eigh
    or complete QR. Full-rank quantons keep every reduced state positive
    definite, so no eigh clamps one either."""
    def forbidden(*args, **kwargs):
        raise AssertionError("an interaction was built or factored")

    qr = np.linalg.qr

    def reduced_qr(a, mode="reduced"):
        assert mode == "reduced", "a complete QR ran"
        return qr(a, mode)

    monkeypatch.setattr(states.MixedDetectorInteraction, "__post_init__", forbidden)
    for module in (states, duality):
        monkeypatch.setattr(module, "_branches", forbidden)
    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    monkeypatch.setattr(np.linalg, "qr", reduced_qr)
    for n, dim in ((2, 1), (4, 2), (4, 4), (8, 12)):
        argv = ["verify", "--scenario", "mixed_mixed", "--n", str(n), "--seed", "3", "--detector-dim", str(dim),
                "--rank", str(n)]
        assert _run(capsys, argv)[::2] == (0, "")


# (scenario, n, detector dimension, --rank or None): both scenarios at every n
# and at dim 1, below n, at n and at 2n; mixed_pure's quanton ranks at both ends
_PURE_DETECTOR_VERIFIES = list(dict.fromkeys(
    [(scenario, n, dim, None) for scenario in ("pure_pure", "mixed_pure") for n in range(2, 9)
     for dim in (1, n // 2 or 1, n - 1, n, 2 * n)]
    + [("mixed_pure", n, dim, rank) for n in (2, 5, 8) for dim in (1, n - 1, 2 * n) for rank in (1, n)]))


@pytest.mark.parametrize("scenario, n, dim, rank", _PURE_DETECTOR_VERIFIES,
                         ids=[f"{s}-n{n}-dim{dim}-rank{rank}" for s, n, dim, rank in _PURE_DETECTOR_VERIFIES])
def test_seeded_pure_detector_verify_equals_the_objects_it_skips(capsys, scenario, n, dim, rank):
    """A seeded pure_pure or mixed_pure `verify` passes the amplitudes and
    detector vectors it draws to the kernel as they are. Its JSON and CSV
    equal, bit for bit, evaluate_pure's or evaluate_mixed's report on the
    checked PureQuanton and DetectorSet that random_pure and
    random_detectors build from the same generators. Not a golden digest,
    so it holds on every numpy."""
    seed = 10 * n + dim
    argv = ["verify", "--scenario", scenario, "--n", str(n), "--seed", str(seed), "--detector-dim", str(dim)]
    detectors = random_detectors(n, dim, np.random.default_rng([seed, 1]))
    visibility = n <= duality.VISIBILITY_MAX_PATHS
    if scenario == "pure_pure":
        report = duality.evaluate_pure(random_pure(n, seed), detectors, include_visibility=visibility)
    else:
        argv += [] if rank is None else ["--rank", str(rank)]
        rng = np.random.default_rng([seed, 0])
        quanton = random_density(n, rank or int(rng.integers(1, n, endpoint=True)), rng)
        report = duality.evaluate_mixed(quanton, detectors, include_visibility=visibility)
    report_json, report_csv = _verify_outputs(report, seed)
    assert _run(capsys, argv) == (0, report_json, "")
    assert _run(capsys, [*argv, "--format", "csv"]) == (0, report_csv, "")


def test_seeded_pure_detector_verify_builds_no_quanton_or_detector_set(capsys, monkeypatch):
    """A seeded pure_pure or mixed_pure `verify` draws its amplitudes and
    detector vectors final by construction: no PureQuanton or DetectorSet
    checks or copies them."""
    def forbidden(self):
        raise AssertionError("a PureQuanton or DetectorSet was built")

    monkeypatch.setattr(states.PureQuanton, "__post_init__", forbidden)
    monkeypatch.setattr(states.DetectorSet, "__post_init__", forbidden)
    for scenario in ("pure_pure", "mixed_pure"):
        for n, dim in ((2, 1), (3, 3), (8, 16)):
            argv = ["verify", "--scenario", scenario, "--n", str(n), "--seed", "3", "--detector-dim", str(dim)]
            assert _run(capsys, argv)[::2] == (0, "")
            assert _run(capsys, [*argv, "--format", "csv"])[::2] == (0, "")


def test_verify_missing_instance_description(capsys):
    code, _, err = _run(capsys, ["verify", "--n", "2", "--scenario", "pure_pure"])
    assert code == 2
    assert "error" in err


def test_verify_csv_format(capsys, tmp_path):
    out_file = tmp_path / "report.csv"
    code, _, _ = _run(capsys, [
        "verify", "--n", "2", "--gamma", "0.6", "--format", "csv", "--output", str(out_file),
    ])
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("scenario,n,coherence")
    assert lines[1].startswith("pure_pure,2,")


def test_verify_rho_from_config(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scenario": "mixed_pure",
        "rho": [[0.5, [0.0, 0.25]], [[0.0, -0.25], 0.5]],
        "gamma": 0.5,
    }))
    code, out, _ = _run(capsys, ["verify", "--config", str(cfg)])
    assert code == 0
    data = json.loads(out)
    # C = 2 * |rho_01| * gamma / (n-1) = 2 * 0.25 * 0.5
    assert data["coherence"] == pytest.approx(0.25, abs=1e-9)
    assert data["n"] == 2


@pytest.mark.parametrize("argv, config, message", [
    (["--amplitudes", "1,0,0,1", "--gamma", "0.3"], {}, "--n 3 disagrees with the 4 amplitudes"),
    (["--scenario", "mixed_pure", "--gamma", "0.5"], {"rho": [[0.5, 0.0], [0.0, 0.5]]},
     "--n 3 disagrees with the 2-row config rho"),
])
def test_verify_n_must_match_the_instance(capsys, tmp_path, argv, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = _run(capsys, ["verify", "--n", "3", "--config", str(cfg), *argv])
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("scenario, argv, config, flag", [
    ("mixed_mixed", ["--gamma", "0.5"], {}, "--gamma"),
    ("mixed_mixed", ["--amplitudes", "1,1,1"], {}, "--amplitudes"),
    ("mixed_pure", ["--amplitudes", "1,1,1"], {}, "--amplitudes"),
    ("pure_pure", ["--rank", "2"], {}, "--rank"),
    ("pure_pure", [], {"rho": [[0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.0]]}, "a config rho"),
    # a config rho gives the state, so no rank is drawn
    ("mixed_pure", ["--rank", "2"], {"rho": [[0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.0]]}, "--rank"),
    ("mixed_mixed", ["--rank", "2"], {"rho": [[0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.0]]}, "--rank"),
])
def test_verify_rejects_options_its_scenario_never_reads(capsys, tmp_path, scenario, argv, config, flag):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = _run(capsys, ["verify", "--scenario", scenario, "--n", "3", "--seed", "5",
                                   "--config", str(cfg), *argv])
    assert (code, out) == (2, "")
    assert f"{flag} is not read by the {scenario} scenario" in err


@pytest.mark.parametrize("argv", [
    ["sweep", "--n", "3", "--scenario", "pure_pure", "--rank", "5", "--gammas", "0,1"],
    ["sweep", "--n", "3", "--rank", "2", "--gammas", "0,1"],
    # out of range as well as unread: the scenario is what makes it malformed
    ["campaign", "--scenario", "pure_pure", "--n", "3", "--rank", "9", "--trials", "3", "--seed", "1"],
    ["campaign", "--scenario", "pure_pure", "--n", "3", "--rank", "1", "--trials", "3", "--seed", "1"],
])
def test_sweep_and_campaign_reject_options_their_scenario_never_reads(capsys, tmp_path, argv):
    code, out, err = _run(capsys, [*argv, "--output", str(tmp_path / "out")])
    assert (code, out) == (2, "")
    assert "--rank is not read by the pure_pure scenario" in err
    assert list(tmp_path.iterdir()) == []


_N_COMMANDS = {
    "verify_pure_pure": ["verify", "--gamma", "0.5"],
    "verify_mixed_pure": ["verify", "--scenario", "mixed_pure", "--seed", "3"],
    "verify_mixed_mixed": ["verify", "--scenario", "mixed_mixed", "--seed", "3"],
    "campaign": ["campaign", "--scenario", "mixed_pure", "--trials", "3", "--seed", "1"],
    "sweep": ["sweep", "--gammas", "0.5"],
    "sweep_mixed_pure": ["sweep", "--scenario", "mixed_pure", "--seed", "3", "--gammas", "0.5"],
    "fringe": ["fringe", "--gamma", "0.5"],
}
_HUGE = 10**400
# a detector dimension past a bound of the largest trial a command may build:
# --gamma's uniform-overlap detectors need one >= n, and pure_pure's composite
# n * dim must fit 1024, where sweep and fringe use dim = n, verify --n unless
# given and a campaign up to 2n unless given
_COMPOSITE = "composite dimension {} exceeds 1024"
_DETECTOR_BOUNDS = [
    ("verify-gamma-dim", ["verify", "--n", "3", "--gamma", "0.5"], "detector_dim", 2,
     "--detector-dim must be >= --n 3 for --gamma's detectors, got 2"),
    ("verify-mixed_pure-gamma-dim", ["verify", "--scenario", "mixed_pure", "--n", "3", "--seed", "1", "--gamma", "0.5"],
     "detector_dim", 2, "--detector-dim must be >= --n 3 for --gamma's detectors, got 2"),
    ("verify-composite", ["verify", "--n", "40", "--seed", "1"], "detector_dim", 40,
     "--n 40 by --detector-dim 40: " + _COMPOSITE.format(1600)),
    ("verify-composite-n", ["verify", "--gamma", "0.5"], "n", 33,
     "--n 33 by detector dimension 33: " + _COMPOSITE.format(1089)),
    ("campaign-composite", ["campaign", "--scenario", "pure_pure", "--n", "40", "--trials", "3", "--seed", "1"],
     "detector_dim", 40, "--n 40 by --detector-dim 40: " + _COMPOSITE.format(1600)),
    ("campaign-composite-n", ["campaign", "--scenario", "pure_pure", "--trials", "3", "--seed", "1"], "n", 23,
     "--n 23 by detector dimension 46: " + _COMPOSITE.format(1058)),
    ("sweep-composite-n", ["sweep", "--gammas", "0.5"], "n", 33,
     "--n 33 by detector dimension 33: " + _COMPOSITE.format(1089)),
    ("fringe-composite-n", ["fringe", "--gamma", "0.5"], "n", 33,
     "--n 33 by detector dimension 33: " + _COMPOSITE.format(1089)),
]
_MALFORMED = [
    *(pytest.param(argv, {"n": n} if source == "config" else None, f"--n must be >= 2, got {n}",
                   id=f"{name}-n{n}-{source}")
      for name, base in _N_COMMANDS.items() for n in (-1, 0, 1) for source in ("flag", "config")
      for argv in [base if source == "config" else [*base, "--n", str(n)]]),
    *(pytest.param(["sweep", "--n", "2", "--gamma-range", value], None,
                   "gamma-range must look like start:stop:count, e.g. 0:1:11", id=f"gamma-range-{value}")
      for value in ("0:1:x", "a:1:3")),
    *(pytest.param(["sweep", "--n", "2", *argv], config, "--gammas must be numbers", id=f"gammas-{name}")
      for name, argv, config in (("flag", ["--gammas", "a"], None), ("flag-part", ["--gammas", "0.5,x"], None),
                                 ("config", [], {"gammas": "0.5,a"}), ("config-list", [], {"gammas": [0.5, "a"]}))),
    # a grid outside [0, 1] (NaN included) or not ascending names the flag that gave it
    *(pytest.param(["sweep", "--n", "2", *argv], config, message, id=f"gamma-grid-{name}")
      for name, argv, config, message in (
          ("range-above-one", ["--gamma-range", "0:2:3"], None,
           "--gamma-range must lie in [0, 1], got [0.0, 1.0, 2.0]"),
          ("range-descending", ["--gamma-range", "1:0:3"], None,
           "--gamma-range must be sorted ascending, got [1.0, 0.5, 0.0]"),
          ("descending", ["--gammas", "0.5,0.2"], None, "--gammas must be sorted ascending, got [0.5, 0.2]"),
          ("nan", ["--gammas", "nan"], None, "--gammas must lie in [0, 1], got [nan]"),
          ("negative", ["--gammas=-0.1,0.5"], None, "--gammas must lie in [0, 1], got [-0.1, 0.5]"),
          ("config-range-above-one", [], {"gamma_range": "0:2:3"}, "--gamma-range must lie in [0, 1]"),
          ("config-range-descending", [], {"gamma_range": "1:0:3"}, "--gamma-range must be sorted ascending"),
          ("config-descending", [], {"gammas": [0.5, 0.2]}, "--gammas must be sorted ascending"),
          ("config-nan", [], {"gammas": "0.5,nan"}, "--gammas must lie in [0, 1], got [0.5, nan]"),
          ("config-above-one", [], {"gammas": [0.5, 1.5]}, "--gammas must lie in [0, 1], got [0.5, 1.5]"),
          ("empty", ["--gammas", ","], None, "--gammas gives an empty gamma grid"),
          ("config-empty", [], {"gammas": []}, "--gammas gives an empty gamma grid"))),
    pytest.param(["sweep", "--n", "2", "--gamma-range", "0:1:0"], None, "--gamma-range count must be >= 1",
                 id="gamma-range-count-0"),
    # two grids, whichever of flags and config file give them, are one too many
    *(pytest.param(["sweep", "--n", "2", *argv], config, "--gammas and --gamma-range both give a gamma grid",
                   id=f"two-gamma-grids-{name}")
      for name, argv, config in (
          ("flags", ["--gamma-range", "0:1:3", "--gammas", "0.5"], None),
          ("flag-and-config", ["--gamma-range", "0:1:3"], {"gammas": [0.5]}),
          ("config", [], {"gammas": [0.5], "gamma_range": "0:1:3"}))),
    *(pytest.param(["verify", "--n", "2", "--gamma", "0.5", "--amplitudes", f"1,{value}"], None,
                   f"--amplitudes must be finite, got '1,{value}'", id=f"amplitudes-{value}")
      for value in ("nan", "inf")),
    # a directory stands for a config path that cannot be read
    pytest.param(["verify", "--n", "2", "--gamma", "0.5", "--config", "."], None, "cannot read config file .",
                 id="config-unreadable"),
    pytest.param(["verify", "--n", "2", "--gamma", "0.5"], [0.5], "config file must contain a JSON object",
                 id="config-list"),
    pytest.param(["verify", "--gamma", "0.5"], None, "missing required option: --n (or a config rho)",
                 id="verify-no-n"),
    pytest.param(["verify", "--scenario", "mixed_mixed", "--n", "3"], None,
                 "mixed_mixed needs --seed to draw the detector state and unitaries", id="verify-mixed_mixed-no-seed"),
    pytest.param(["verify", "--scenario", "mixed_pure", "--n", "3", "--gamma", "0.5"], None,
                 "mixed scenarios need a config rho or --seed", id="verify-mixed_pure-no-state"),
    pytest.param(["verify", "--n", "3"], None, "pure_pure needs --amplitudes, --gamma, or --seed",
                 id="verify-pure_pure-no-state"),
    pytest.param(["verify", "--scenario", "mixed_pure", "--n", "3", "--seed", "1", "--rank", "4"], None,
                 "--rank must lie in 1..3, got 4", id="verify-rank"),
    pytest.param(["campaign", "--scenario", "mixed_mixed", "--n", "3", "--trials", "3", "--seed", "1",
                  "--rank", "0"], None, "--rank must lie in 1..3, got 0", id="campaign-rank"),
    pytest.param(["sweep", "--scenario", "mixed_pure", "--n", "3", "--seed", "1", "--gammas", "0.5",
                  "--rank", "4"], None, "--rank must lie in 1..3, got 4", id="sweep-rank"),
    pytest.param(["verify", "--n", "3", "--seed", "1", "--detector-dim", "0"], None,
                 "--detector-dim must be >= 1, got 0", id="verify-detector-dim"),
    # a campaign has no default scenario, so no pure_pure composite bound applies before --scenario is given
    pytest.param(["campaign", "--n", "40", "--trials", "3", "--seed", "1"], None,
                 "missing required option: --scenario", id="campaign-no-scenario-n40"),
    pytest.param(["campaign", "--scenario", "pure_pure", "--n", "3", "--trials", "3", "--seed", "1",
                  "--detector-dim", "0"], None, "--detector-dim must be >= 1, got 0",
                 id="campaign-detector-dim"),
    # a rank, detector dimension or trial count out of range names its flag and
    # value, whether a flag or a config file gives it
    *(pytest.param(base if source == "config" else [*base, f"--{key.replace('_', '-')}", str(value)],
                   {key: value} if source == "config" else None, message, id=f"{name}-{source}")
      for name, base, key, value, message in (
          ("verify-rank-0", ["verify", "--scenario", "mixed_mixed", "--n", "3", "--seed", "1"], "rank", 0,
           "--rank must lie in 1..3, got 0"),
          ("campaign-rank-4", ["campaign", "--scenario", "mixed_pure", "--n", "3", "--trials", "3", "--seed", "1"],
           "rank", 4, "--rank must lie in 1..3, got 4"),
          ("sweep-rank-0", ["sweep", "--scenario", "mixed_pure", "--n", "3", "--seed", "1", "--gammas", "0.5"],
           "rank", 0, "--rank must lie in 1..3, got 0"),
          ("verify-detector-dim--2", ["verify", "--scenario", "mixed_mixed", "--n", "3", "--seed", "1"],
           "detector_dim", -2, "--detector-dim must be >= 1, got -2"),
          ("campaign-detector-dim--2", ["campaign", "--scenario", "mixed_mixed", "--n", "3", "--trials", "3",
                                        "--seed", "1"], "detector_dim", -2, "--detector-dim must be >= 1, got -2"),
          ("campaign-trials-0", ["campaign", "--scenario", "pure_pure", "--n", "2", "--seed", "1"], "trials", 0,
           "--trials must lie in 1..2^32, got 0"),
          ("campaign-trials-2p32p1", ["campaign", "--scenario", "pure_pure", "--n", "2", "--seed", "1"], "trials",
           2**32 + 1, f"--trials must lie in 1..2^32, got {2**32 + 1}"))
      for source in ("flag", "config")),
    *(pytest.param(["fringe", "--n", "2", "--gamma", "0.5", "--grid-points", points], None,
                   f"--grid-points must be {bound}", id=f"fringe-grid-points-{points}")
      for points, bound in (("64", ">= 256, got 64"), ("65537", "<= 65536, got 65537"))),
    # a number list entry that is none, from a flag or a config file, names its flag
    *(pytest.param(["verify", "--n", "2", "--gamma", "0.5", *argv], config, message, id=f"amplitudes-{name}")
      for name, argv, config, message in (
          ("not-a-number", ["--amplitudes", "1,abc"], None, "--amplitudes must be numbers, got '1,abc'"),
          ("null-in-a-pair", [], {"amplitudes": [[1, None], 1]}, "--amplitudes must be numbers, got [[1, None], 1]"),
          ("huge-int", [], {"amplitudes": [10**400, 1]}, "--amplitudes must be numbers, got [1000"),
          ("one", ["--amplitudes", "1"], None, "--amplitudes must give at least 2 amplitudes, got '1'"),
          ("zero", ["--amplitudes", "0,0j"], None, "--amplitudes are all zero, got '0,0j'"))),
    pytest.param(["sweep", "--n", "2"], {"gammas": [0.5, 10**400]}, "--gammas must be numbers, got [0.5, 1000",
                 id="gammas-huge-int"),
    *(pytest.param(["verify", "--scenario", "mixed_pure", "--gamma", "0.5"], {"rho": rho}, message,
                   id=f"rho-{name}")
      for name, rho, message in (
          ("ragged", [[0.5, 0.0], [0.0]], "a config rho must be square, got [[0.5, 0.0], [0.0]]"),
          ("not-square", [[0.5, 0.0, 0.0], [0.0, 0.5, 0.0]], "a config rho must be square"),
          ("not-a-number", [[0.5, "x"], [0.0, 0.5]], "a config rho must be numbers, got [0.5, 'x']"),
          ("not-a-list", [0.5, 0.5], "a config rho must be a non-empty nested list"),
          ("not-hermitian", [[0.5, 1.0], [0.0, 0.5]], "a config rho: Hermiticity deviation"),
          ("one-path", [[1.0]], "a config rho: a quanton needs at least 2 paths"),
          ("overflowing", [[1e308, -1e308], [1e308, 1e308]], "a config rho: overflow encountered"))),
    # a single --gamma answers to the gamma-grid rule under its flag's name
    *(pytest.param([command, "--n", "2", "--gamma", value], None, f"--gamma must lie in [0, 1], got [{value}]",
                   id=f"{command}-gamma-{value}")
      for command in ("verify", "fringe") for value in ("nan", "1.5", "-0.5", "inf")),
    pytest.param(["verify", "--scenario", "mixed_pure", "--n", "2", "--seed", "1", "--gamma", "2.0"], None,
                 "--gamma must lie in [0, 1], got [2.0]", id="verify-mixed_pure-gamma-2.0"),
    pytest.param(["verify", "--n", "2", "--amplitudes", "1,1"], None, "need --gamma or --seed to build detectors",
                 id="verify-no-detectors"),
    # an integer beyond 2^32 - 1 names its flag before it reaches a draw or a shape
    *(pytest.param(base if source == "config" else [*base, flag, str(_HUGE)],
                   {key: _HUGE} if source == "config" else None, f"{flag} must be <= 2^32 - 1, got {_HUGE}",
                   id=f"{name}-huge-{source}")
      for name, base, key, flag in (
          ("sweep-n", ["sweep", "--gammas", "0.5"], "n", "--n"),
          ("fringe-n", ["fringe", "--gamma", "0.5"], "n", "--n"),
          ("verify-n", ["verify", "--gamma", "0.5"], "n", "--n"),
          ("verify-mixed_pure-n", ["verify", "--scenario", "mixed_pure", "--seed", "1"], "n", "--n"),
          ("verify-detector-dim", ["verify", "--seed", "1", "--n", "2"], "detector_dim", "--detector-dim"))
      for source in ("flag", "config")),
    *(pytest.param(base if source == "config" else [*base, f"--{key.replace('_', '-')}", str(value)],
                   {key: value} if source == "config" else None, message, id=f"{name}-{source}")
      for name, base, key, value, message in _DETECTOR_BOUNDS for source in ("flag", "config")),
]


@pytest.mark.parametrize("argv, config, message", _MALFORMED)
def test_malformed_option_exits_two_before_any_output(capsys, tmp_path, argv, config, message):
    """A malformed option, from a flag or a config file, exits 2 with one
    `error: ` line naming it, before anything is drawn or written: stdout,
    where verify, sweep and fringe write by default, stays empty, and a
    campaign leaves no file under its output prefix."""
    argv = list(argv)
    if argv[0] == "campaign":
        argv += ["--output", str(tmp_path / "campaign")]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0], err
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if config is None else ["config.json"])


@pytest.mark.parametrize("name, base, key, value, message", _DETECTOR_BOUNDS, ids=[b[0] for b in _DETECTOR_BOUNDS])
def test_detector_bounds_are_named_before_anything_is_drawn_or_built(capsys, monkeypatch, tmp_path, name, base, key,
                                                                       value, message):
    def forbidden(*args, **kwargs):
        raise AssertionError("a quanton or detector was drawn or built")

    for builder in ("random_pure", "random_density", "_pure_quanton_draw", "_pure_detector_draw", "_mixed_detector_draw",
                    "uniform_overlap_detectors", "symmetric_detectors", "_equal_amplitude_quanton", "run_campaign"):
        monkeypatch.setattr(cli, builder, forbidden)
    argv = [*base, f"--{key.replace('_', '-')}", str(value), "--output", str(tmp_path / "out")]
    assert _run(capsys, argv) == (2, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("amplitudes", ["1e200,1e200", "1e-200,1e-200"])
def test_amplitudes_too_large_or_small_to_square_normalize(capsys, amplitudes):
    argv = ["verify", "--n", "2", "--gamma", "0.5", "--amplitudes"]
    report = _run(capsys, [*argv, "1,1"])
    assert report[0] == 0
    assert _run(capsys, [*argv, amplitudes]) == report


# zero, or a magnitude whose square the plain division's norm holds without underflow
_AMPLITUDE = st.just(0.0) | st.floats(1e-100, 1e3) | st.floats(-1e3, -1e-100)


@given(st.lists(st.tuples(_AMPLITUDE, _AMPLITUDE), min_size=2, max_size=8).filter(
    lambda parts: any(re or im for re, im in parts)))
def test_amplitudes_normalize_to_the_bits_of_a_plain_division(parts):
    # the scaling that keeps huge and tiny amplitudes finite moves no bit of ordinary ones
    amps = np.array([complex(re, im) for re, im in parts])
    assert np.array_equal(cli._parse_amplitudes([list(part) for part in parts]), amps / np.linalg.norm(amps))


# ------------------------------------------------------------ number lists

def _oracle_complex(value):
    """One accepted --amplitudes or config rho entry, read by type as the
    CLI read it before _numbers served every number list."""
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, str):
        return complex(value.replace(" ", ""))
    return complex(float(value[0]), float(value[1]))


_PADDING = st.sampled_from(["", " ", "  "])
_REAL = st.integers(-2**64, 2**64) | st.floats()
_REAL_TEXT = st.builds(lambda left, x, right: f"{left}{x!r}{right}", _PADDING, _REAL, _PADDING)
_COMPLEX_TEXT = st.complex_numbers().map(str) | st.builds(
    lambda re, im: f"{re!r} + {im!r}j", st.floats(allow_nan=False), st.floats(0, allow_infinity=False))
_COMPLEX_ENTRY = _REAL | _REAL_TEXT | _COMPLEX_TEXT | st.lists(_REAL | _REAL_TEXT, min_size=2, max_size=2)


def _bits(values, kind):
    return np.array(values, dtype=kind).tobytes()


@given(st.lists(_REAL | _REAL_TEXT, max_size=6))
def test_numbers_read_real_entries_to_the_bit(entries):
    """A gamma list reads as float(entry), from a list or a comma string."""
    assert _bits(cli._numbers(entries, "--gammas"), float) == _bits([float(v) for v in entries], float)
    texts = [v if isinstance(v, str) else repr(v) for v in entries]
    assert _bits(cli._numbers(",".join(texts), "--gammas"), float) == _bits([float(v) for v in texts], float)


@given(st.lists(_COMPLEX_ENTRY, max_size=6))
def test_numbers_read_complex_entries_to_the_bit(entries):
    """Numbers, numeric strings and [re, im] pairs read as complex exactly
    as the per-option readers read them, from a list or a comma string."""
    expected = _bits([_oracle_complex(v) for v in entries], complex)
    assert _bits(cli._numbers(entries, "--amplitudes", complex), complex) == expected
    texts = [v if isinstance(v, str) else repr(v) for v in entries if not isinstance(v, list)]
    assert (_bits(cli._numbers(",".join(texts), "--amplitudes", complex), complex)
            == _bits([_oracle_complex(v) for v in texts], complex))


# leaves that JSON holds, with huge integers and strings that are numbers or near them
_JSON_LEAF = (st.none() | st.booleans() | st.integers() | st.integers(10**300, 10**400) | st.floats()
              | st.text(max_size=6) | st.sampled_from(["0.5", "1,1", "0,1", "nan", "1e999", "(1+1j)", ",", ""]))
# any JSON value, and more often the list of leaves or of rows that a number option holds
_JSON = (st.recursive(_JSON_LEAF, lambda inner: st.lists(inner, max_size=4)
                      | st.dictionaries(st.text(max_size=2), inner, max_size=2), max_leaves=12)
         | st.lists(_JSON_LEAF | st.lists(_JSON_LEAF, min_size=2, max_size=3), max_size=4))
# each config key, the command that reads it, and the name its messages give it
_JSON_OPTIONS = {
    "amplitudes": (["verify", "--n", "2", "--gamma", "0.5"], "amplitudes", "--amplitudes"),
    "gammas": (["sweep", "--n", "2"], "gammas", "--gammas"),
    "rho": (["verify", "--scenario", "mixed_pure", "--gamma", "0.5"], "rho", "a config rho"),
    "gamma-verify": (["verify", "--n", "2"], "gamma", "--gamma"),
    "gamma-fringe": (["fringe", "--n", "2", "--grid-points", "256"], "gamma", "--gamma"),
}


@pytest.mark.parametrize("option", sorted(_JSON_OPTIONS))
@settings(derandomize=True, max_examples=40, deadline=None)
@given(value=_JSON)
def test_any_json_value_of_a_number_option_exits_cleanly(tmp_path_factory, option, value):
    """Whatever JSON value a config gives amplitudes, gammas, rho or gamma,
    main returns 0, 1 or 2 and raises nothing; a value it rejects exits 2
    with one `error: ` line that names the option."""
    argv, key, name = _JSON_OPTIONS[option]
    path = tmp_path_factory.getbasetemp() / "any-json-value.json"
    path.write_text(json.dumps({key: value}))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--config", str(path)])
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert out.getvalue() == "" and len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
        assert name in lines[0], lines[0]
    else:
        assert err.getvalue() == ""


@pytest.mark.parametrize("command", ["verify", "fringe"])
@pytest.mark.parametrize("literal, message", [
    ("1e999", "--gamma must lie in [0, 1], got [inf]"),
    ("1" + "0" * 400, "does not fit --gamma"),
], ids=["1e999", "400-digit-int"])
def test_config_gamma_beyond_every_float_exits_two(capsys, tmp_path, command, literal, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"n": 2, "gamma": {literal}}}')
    code, out, err = _run(capsys, [command, "--config", str(cfg)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize("content", [b"\xff{}", b"[" * 100_000, b"1" * 5000],
                         ids=["not-utf8", "too-deep", "too-many-digits"])
def test_config_file_that_does_not_decode_exits_two(capsys, tmp_path, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content)
    code, out, err = _run(capsys, ["verify", "--n", "2", "--gamma", "0.5", "--config", str(cfg)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read config file {cfg}: ") and err.count("\n") == 1


def test_config_flag_precedence(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "pure_pure", "n": 2, "gamma": 0.3}))
    code, out, _ = _run(capsys, ["verify", "--config", str(cfg), "--gamma", "0.6"])
    assert code == 0
    assert json.loads(out)["coherence"] == pytest.approx(0.6, abs=1e-9)


def test_malformed_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "two"])
    assert exc.value.code == 2
    # fringe draws nothing at random, so it takes no seed
    with pytest.raises(SystemExit) as exc:
        main(["fringe", "--n", "2", "--gamma", "0.5", "--seed", "9"])
    assert exc.value.code == 2


def test_config_values_checked_like_flags(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    campaign = ["campaign", "--scenario", "pure_pure", "--trials", "3", "--seed", "1",
                "--output", str(tmp_path / "run")]
    cases = (
        (campaign, {"n": [2, 3]}, "'n'"),
        (campaign, {"n": 3, "detector_dim": "4"}, "'detector_dim'"),
        (campaign, {"n": 2.5}, "'n'"),
        (["verify"], {"n": 2, "gamma": 1, "format": "yaml"}, "'format'"),
        (["verify"], {"scenario": "mixed_pure", "rho": [1, 2], "gamma": 0.5}, "rho"),
        (["sweep"], {"n": 2, "gammas": [[0.5]]}, "gammas"),
        (["verify"], {"n": 2, "gamma": 0.5, "detector_dm": 9}, "'detector_dm'"),
        (campaign, {"n": 3, "rho": [[1.0]]}, "'rho'"),
    )
    for argv, config, key in cases:
        cfg.write_text(json.dumps(config))
        code, _, err = _run(capsys, [*argv, "--config", str(cfg)])
        assert code == 2
        assert key in err


def test_config_booleans_are_not_complex_numbers(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cases = (
        (["--scenario", "mixed_pure", "--n", "2", "--gamma", "0.5"], {"rho": [[True, 0], [0, False]]}),
        (["--scenario", "mixed_pure", "--n", "2", "--gamma", "0.5"], {"rho": [[0.5, [0, True]], [0, 0.5]]}),
        (["--scenario", "pure_pure", "--n", "2", "--gamma", "0.5"], {"amplitudes": [True, True]}),
        (["--scenario", "pure_pure", "--n", "2", "--gamma", "0.5"], {"amplitudes": [[1, False], 1]}),
    )
    for argv, config in cases:
        cfg.write_text(json.dumps(config))
        code, _, err = _run(capsys, ["verify", *argv, "--config", str(cfg)])
        assert code == 2
        assert f"{'a config rho' if 'rho' in config else '--amplitudes'} must be numbers, got " in err


@pytest.mark.parametrize("command", ["verify", "campaign", "sweep", "fringe"])
@pytest.mark.parametrize("key, value", [("config", "other.json"), ("help", "x")])
def test_command_line_only_flags_are_no_config_keys(capsys, tmp_path, command, key, value):
    """--config and --help have a dest like any flag, but a config file that
    names one is malformed: a nested file would be neither followed nor read."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, key: value}))
    code, out, err = _run(capsys, [command, "--config", str(cfg)])
    assert (code, out) == (2, "")
    assert err == f"error: config key {key!r} names no option of {command}\n"


# ------------------------------------------------------------ shared parser

def _parser_defaults():
    """Every default the shared parser holds: each parser's set_defaults and
    each action's default, the top-level parser's included."""
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: (dict(p._defaults), [(a.dest, a.default) for a in p._actions])
            for name, p in {"": parser, **commands.choices}.items()}


def test_parser_is_built_once_per_process(capsys, tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for _ in range(3):
        assert main(["verify", "--n", "2", "--gamma", "0.5"]) == 0
        assert main(["campaign", "--scenario", "pure_pure", "--n", "2", "--trials", "2", "--seed", "1",
                     "--output", str(tmp_path / "run")]) == 0
        assert main(["sweep", "--n", "2", "--gammas", "0,1"]) == 0
        assert main(["fringe", "--n", "2", "--gamma", "0.5", "--grid-points", "256"]) == 0
        with pytest.raises(SystemExit):
            main(["verify", "--n", "two"])
    capsys.readouterr()
    assert len(built) == 5  # the parser and its four subparsers
    assert cli.build_parser.cache_info().misses == 1


def test_shared_parser_leaks_nothing_between_calls(capsys, tmp_path):
    before = _parser_defaults()
    argv = ["verify", "--n", "2", "--scenario", "pure_pure", "--gamma", "0.6"]
    code, report, _ = _run(capsys, argv)
    assert code == 0 and json.loads(report)["coherence"] == pytest.approx(0.6, abs=1e-9)

    # --format csv, then a plain call: JSON again
    code, csv, _ = _run(capsys, [*argv, "--format", "csv"])
    assert code == 0 and csv.startswith(",".join(cli.VERIFY_CSV_COLUMNS) + "\n")
    assert _run(capsys, argv) == (0, report, "")

    # a --config call, then a flag-only call that lacks what the file gave
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gamma": 0.6, "format": "csv"}))
    assert _run(capsys, [*argv[:5], "--config", str(cfg)]) == (0, csv, "")
    assert _run(capsys, argv[:5]) == (2, "", "error: pure_pure needs --amplitudes, --gamma, or --seed\n")

    # a malformed flag, then a good call
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--format", "csv", "--rank", "two"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert _run(capsys, argv) == (0, report, "")
    assert _parser_defaults() == before


# ------------------------------------------------------- command-first parse

def _outcome(argv, capsys):
    """main's exit code, whether returned or raised by argparse, with its stdout and stderr."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


def _whole_parse(argv):
    return cli.build_parser().parse_args(argv)


# every README CLI line (campaign trials cut, as test_readme cuts them), help
# on the top level and on each command, and argvs that the whole parser
# rejects, accepts by abbreviation or reads past a "--"
_PARSE_CORPUS = [
    *([*argv[:argv.index("--trials") + 1], "50", *argv[argv.index("--trials") + 2:]] if "--trials" in argv else argv
      for argv in (shlex.split(line)[1:] for line in CLI_LINES)),
    ["-h"], ["--help"], *([command, "-h"] for command in ("verify", "campaign", "sweep", "fringe")),
    [], ["bogus", "--n", "2"], ["verify", "--n", "2", "--gamma", "0.5", "stray"],
    ["verify", "--n", "2", "--gamma", "0.5", "--bogus"], ["verify", "--n=3", "--gamma", "0.5"],
    ["campaign", "--sce", "pure_pure", "--n", "2", "--trials", "3", "--seed", "1", "--output", "run"],
    ["verify", "--n", "two"], ["verify", "--n", "2", "--scenario", "nope"], ["verify", "--n"],
    ["verify", "--", "--n", "2"], ["verify", "--n", "2", "--gamma", "0.5", "--"], ["--", "verify", "--n", "2"],
    ["verify", "--h"], ["verify", "--n", "2", "--seed", "-3"],
]


@pytest.mark.parametrize("argv", _PARSE_CORPUS, ids=[" ".join(argv) or "no-arguments" for argv in _PARSE_CORPUS])
def test_command_first_parse_equals_the_whole_parser(capsys, monkeypatch, tmp_path, argv):
    """main parses an argv that starts with a command on that command's
    subparser: its exit code, stdout, stderr and files equal those of a
    main that parses every argv on the whole parser."""
    outcomes = []
    for parse in (cli._parse, _whole_parse):
        monkeypatch.setattr(cli, "_parse", parse)
        directory = tmp_path / parse.__name__
        directory.mkdir()
        monkeypatch.chdir(directory)
        outcomes.append((*_outcome(argv, capsys), {path.name: path.read_bytes() for path in directory.iterdir()}))
    assert outcomes[0] == outcomes[1]


def test_a_command_argv_is_parsed_on_its_subparser_alone(capsys, monkeypatch):
    """An argv that names a command and leaves nothing over never reaches
    the whole parser, whose parse_args runs again only to report what the
    subparser left over."""
    calls, parse_args = [], cli.build_parser().parse_args
    monkeypatch.setattr(cli.build_parser(), "parse_args", lambda argv: calls.append(argv) or parse_args(argv))
    assert _outcome(["verify", "--n", "2", "--gamma", "0.5"], capsys)[0] == 0
    assert calls == []
    assert _outcome(["verify", "--n", "2", "--gamma", "0.5", "--bogus"], capsys)[0] == 2
    assert calls == [["verify", "--n", "2", "--gamma", "0.5", "--bogus"]]


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    argv = ["verify", "--n", "2", "--gamma", "0.5"]
    expected = _outcome(argv, capsys)
    monkeypatch.setattr(sys, "argv", ["duality-lab", *argv])
    assert _outcome(None, capsys) == expected
    monkeypatch.setattr(sys, "argv", ["duality-lab", *argv, "--bogus"])
    code, out, err = _outcome(None, capsys)
    assert (code, out) == (2, "")
    assert err.endswith("duality-lab: error: unrecognized arguments: --bogus\n")


# ----------------------------------------------------------------- campaign

def test_campaign_writes_csv_and_json(capsys, tmp_path):
    prefix = tmp_path / "camp"
    code, out, _ = _run(capsys, [
        "campaign", "--scenario", "mixed_mixed", "--n", "4", "--trials", "25",
        "--seed", "42", "--output", str(prefix),
    ])
    assert code == 0
    assert "0 violations" in out
    rows = (tmp_path / "camp.csv").read_text().splitlines()
    assert len(rows) == 26
    agg = json.loads((tmp_path / "camp.json").read_text())
    assert agg["violations"] == 0
    assert agg["trials"] == 25
    assert agg["seed"] == 42


def test_campaign_reproducible_bytes(capsys, tmp_path):
    argv = ["campaign", "--scenario", "pure_pure", "--n", "3", "--trials", "40", "--seed", "9"]
    code1, _, _ = _run(capsys, argv + ["--output", str(tmp_path / "a")])
    code2, _, _ = _run(capsys, argv + ["--output", str(tmp_path / "b")])
    assert code1 == code2 == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_campaign_requires_seed(capsys):
    code, _, err = _run(capsys, ["campaign", "--scenario", "pure_pure", "--n", "2", "--trials", "5"])
    assert code == 2
    assert "seed" in err


def test_campaign_rejects_zero_trials(capsys):
    code, _, err = _run(capsys, [
        "campaign", "--scenario", "pure_pure", "--n", "2", "--trials", "0", "--seed", "1",
    ])
    assert code == 2
    assert "trials" in err


def test_campaign_rejects_more_trials_than_one_key_word_holds(capsys, tmp_path):
    code, out, err = _run(capsys, [
        "campaign", "--scenario", "pure_pure", "--n", "2", "--trials", str(2**32 + 1), "--seed", "1",
        "--output", str(tmp_path / "run"),
    ])
    assert code == 2
    assert out == ""
    assert err == f"error: --trials must lie in 1..2^32, got {2**32 + 1}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["verify", "--scenario", "mixed_mixed", "--n", "3", "--seed", "5"],
    ["verify", "--scenario", "pure_pure", "--n", "3", "--seed", "5"],
    ["campaign", "--scenario", "mixed_mixed", "--n", "3", "--trials", "2", "--seed", "5"],
    ["campaign", "--scenario", "pure_pure", "--n", "3", "--trials", "2", "--seed", "5"],
])
def test_nonpositive_detector_dim_exits_two(capsys, tmp_path, argv):
    code, _, err = _run(capsys, argv + ["--detector-dim", "0", "--output", str(tmp_path / "out")])
    assert code == 2
    assert "--detector-dim must be >= 1, got 0" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["campaign", "--scenario", "pure_pure", "--n", "3", "--trials", "2"],
    ["verify", "--scenario", "mixed_pure", "--n", "3"],
    ["sweep", "--scenario", "mixed_pure", "--n", "3", "--gammas", "0,1"],
])
def test_negative_seed_exits_two(capsys, tmp_path, argv):
    code, _, err = _run(capsys, argv + ["--seed", "-1", "--output", str(tmp_path / "out")])
    assert code == 2
    assert "--seed must be a non-negative integer, got -1" in err
    assert not list(tmp_path.iterdir())


def test_campaign_checks_output_directory_first(capsys, tmp_path, monkeypatch):
    def no_trials(*args, **kwargs):
        raise AssertionError("trials ran")

    monkeypatch.setattr("duality_lab.cli.run_campaign", no_trials)
    prefix = tmp_path / "missing" / "run"
    code, _, err = _run(capsys, ["campaign", "--scenario", "pure_pure", "--n", "2", "--trials", "3",
                                 "--seed", "1", "--output", str(prefix)])
    assert code == 2
    assert str(tmp_path / "missing") in err


@pytest.mark.parametrize("prefix, source", [("out/", "flag"), ("out/", "config"), ("", "flag"), ("./", "flag"),
                                            ("out/.", "flag"), ("out/..", "flag")])
def test_campaign_output_without_a_file_name_exits_two(capsys, tmp_path, monkeypatch, prefix, source):
    """A prefix that ends in no file name, or in . or .., would write the
    hidden files .csv and .json, or ..csv and ..json, into a directory."""
    (tmp_path / "out").mkdir()
    monkeypatch.chdir(tmp_path if prefix.startswith("out/") else tmp_path / "out")
    argv = ["campaign", "--scenario", "pure_pure", "--n", "2", "--trials", "3", "--seed", "1"]
    if source == "config":
        (tmp_path / "config.json").write_text(json.dumps({"output": prefix}))
        argv += ["--config", str(tmp_path / "config.json")]
    else:
        argv += ["--output", prefix]
    code, out, err = _run(capsys, argv)
    assert (code, out, err) == (2, "", f"error: --output {prefix!r} ends in no file name\n")
    assert list((tmp_path / "out").iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == (["config.json", "out"] if source == "config" else ["out"])


# -------------------------------------------------------------------- sweep

def test_sweep_two_path_rows(capsys):
    code, out, _ = _run(capsys, ["sweep", "--n", "2", "--gamma-range", "0:1:11"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "gamma,coherence,distinguishability,slack,visibility"
    assert len(lines) == 12
    for line in lines[1:]:
        gamma, c, d, s, v = (float(x) for x in line.split(","))
        assert c + d == pytest.approx(1.0, abs=1e-9)
        assert s == 0.0
        assert v == pytest.approx(gamma, abs=1e-8)


def test_sweep_three_path_visibility_relation(capsys):
    code, out, _ = _run(capsys, ["sweep", "--n", "3", "--gammas", "0,0.2,0.5,0.8,1"])
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        _, c, _, _, v = (float(x) for x in line.split(","))
        assert c == pytest.approx(2 * v / (3 - v), abs=1e-8)


def test_sweep_mixed_scenario(capsys):
    code, out, _ = _run(capsys, [
        "sweep", "--n", "3", "--scenario", "mixed_pure", "--seed", "3",
        "--rank", "2", "--gammas", "0,0.5,1",
    ])
    assert code == 0
    rows = out.strip().splitlines()[1:]
    for line in rows:
        gamma, c, d, s, _ = (float(x) for x in line.split(","))
        assert c + d + s == pytest.approx(1.0, abs=1e-9)


def test_sweep_rejects_rank_above_n(capsys):
    code, _, err = _run(capsys, [
        "sweep", "--n", "3", "--scenario", "mixed_pure", "--seed", "5", "--rank", "7", "--gammas", "0,1",
    ])
    assert code == 2
    assert "rank must lie in 1..3, got 7" in err


def test_sweep_empty_range(capsys):
    code, _, err = _run(capsys, ["sweep", "--n", "2", "--gammas", ""])
    assert code == 2
    assert "error" in err


def test_sweep_needs_gamma_grid(capsys):
    code, _, err = _run(capsys, ["sweep", "--n", "2"])
    assert code == 2
    assert "gamma" in err


# ------------------------------------------------------------------- fringe

def test_fringe_header_and_rows(capsys, tmp_path):
    out_file = tmp_path / "fringe.csv"
    code, _, _ = _run(capsys, [
        "fringe", "--n", "2", "--gamma", "0.6", "--output", str(out_file),
    ])
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("# n=2 gamma=0.6 ")
    header = dict(part.split("=") for part in lines[0][2:].split(" "))
    assert float(header["visibility"]) == pytest.approx(0.6, abs=1e-8)
    assert float(header["distinguishability"]) == pytest.approx(0.4, abs=1e-8)
    assert lines[1] == "theta,intensity"
    assert len(lines) == 2 + 4096


def test_fringe_flat_at_zero_overlap(capsys):
    code, out, _ = _run(capsys, ["fringe", "--n", "2", "--gamma", "0", "--grid-points", "256"])
    assert code == 0
    values = [float(line.split(",")[1]) for line in out.strip().splitlines()[2:]]
    assert max(values) - min(values) <= 1e-12
    assert values[0] == pytest.approx(1.0, abs=1e-12)


def test_fringe_csv_roundtrip(capsys):
    code, out, _ = _run(capsys, ["fringe", "--n", "2", "--gamma", "0.5", "--grid-points", "256"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# n=2 gamma=0.5 ")
    assert lines[1] == "theta,intensity"
    assert len(lines) == 2 + 256
    theta0, i0 = lines[2].split(",")
    assert float(theta0) == 0.0
    assert abs(float(i0) - 1.5) <= 1e-12


def test_fringe_rejects_small_grid(capsys):
    code, _, err = _run(capsys, ["fringe", "--n", "2", "--gamma", "0.5", "--grid-points", "64"])
    assert code == 2
    assert "grid-points" in err


def test_fringe_rejects_large_grid(capsys):
    # one point above MAX_GRID_POINTS is a malformed option (exit 2), not a violation
    code, out, err = _run(capsys, ["fringe", "--n", "2", "--gamma", "0.5", "--grid-points", "65537"])
    assert code == 2
    assert out == ""
    assert "--grid-points must be <= 65536" in err


# ------------------------------------------------------------ output files

# over 1 MB that is not UTF-8, so no stale tail can pass for output
_JUNK = b"\xffjunk\n" * (2**20 // 6 + 1)

_VERIFY = ["verify", "--n", "3", "--scenario", "mixed_pure", "--seed", "7", "--rank", "2"]
_SWEEP = ["sweep", "--n", "3", "--gamma-range", "0:1:11"]
_FRINGE = ["fringe", "--n", "2", "--gamma", "0.6"]
_FILE_COMMANDS = [_VERIFY, _VERIFY + ["--format", "csv"], _SWEEP, _FRINGE]


@pytest.mark.parametrize("old", [_JUNK, b"#"], ids=["longer", "shorter"])
@pytest.mark.parametrize("argv, suffixes", [
    *((argv, ("",)) for argv in _FILE_COMMANDS),
    (["campaign", "--scenario", "mixed_mixed", "--n", "3", "--trials", "20", "--seed", "1"], (".csv", ".json")),
])
def test_output_over_an_existing_file_equals_a_fresh_write(capsys, tmp_path, argv, suffixes, old):
    """Every command writes over an existing output in place and cuts it to
    what it wrote: the file equals, byte for byte, the same command's output
    to a fresh path, whether the old file was longer or shorter."""
    for suffix in suffixes:
        (tmp_path / f"old{suffix}").write_bytes(old)
    assert _run(capsys, argv + ["--output", str(tmp_path / "fresh")])[0] == 0
    assert _run(capsys, argv + ["--output", str(tmp_path / "old")])[0] == 0
    for suffix in suffixes:
        assert (tmp_path / f"old{suffix}").read_bytes() == (tmp_path / f"fresh{suffix}").read_bytes()


def test_a_short_fringe_over_a_long_one_equals_a_fresh_write(capsys, tmp_path):
    path, fresh = tmp_path / "fringe.csv", tmp_path / "fresh.csv"
    assert _run(capsys, _FRINGE + ["--grid-points", "65536", "--output", str(path)])[0] == 0
    long_size = path.stat().st_size
    assert _run(capsys, _FRINGE + ["--grid-points", "256", "--output", str(path)])[0] == 0
    assert _run(capsys, _FRINGE + ["--grid-points", "256", "--output", str(fresh)])[0] == 0
    assert path.read_bytes() == fresh.read_bytes()
    assert path.stat().st_size < long_size // 100


def test_an_error_mid_write_leaves_the_new_head_and_no_old_tail(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(_JUNK)
    with pytest.raises(RuntimeError, match="mid-write"):
        with duality._rewrite(path) as fh:
            fh.write("new head\n")
            raise RuntimeError("mid-write")
    assert path.read_bytes() == b"new head\n"


@pytest.mark.parametrize("umask", [0o022, 0o002, 0o077])
def test_a_new_output_has_the_mode_open_gives(capsys, tmp_path, umask):
    """A new output is created with mode 0o666 less the umask, as open(p, "w")
    creates a file: not executable, as os.open's default 0o777 would make it."""
    before = os.umask(umask)
    try:
        with open(tmp_path / "plain", "w"):
            pass
        with duality._rewrite(tmp_path / "rewritten"):
            pass
        assert _run(capsys, _VERIFY + ["--output", str(tmp_path / "verify.json")])[0] == 0
    finally:
        os.umask(before)
    modes = {stat.S_IMODE(os.stat(tmp_path / name).st_mode) for name in ("plain", "rewritten", "verify.json")}
    assert len(modes) == 1


def test_output_through_a_symlink_rewrites_its_target(capsys, tmp_path):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_bytes(_JUNK)
    try:
        link.symlink_to(target)
    except OSError:
        pytest.skip("cannot create a symlink here")
    assert _run(capsys, _SWEEP + ["--output", str(link)])[0] == 0
    assert _run(capsys, _SWEEP + ["--output", str(tmp_path / "fresh.csv")])[0] == 0
    assert link.is_symlink()
    assert target.read_bytes() == (tmp_path / "fresh.csv").read_bytes()


@pytest.mark.parametrize("argv", _FILE_COMMANDS)
def test_output_to_a_missing_directory_or_a_directory_exits_two(capsys, tmp_path, argv):
    for output in (tmp_path / "missing" / "out", tmp_path):
        code, out, err = _run(capsys, argv + ["--output", str(output)])
        assert (code, out) == (2, "")
        assert err.startswith("error: [Errno ") and str(output) in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
@pytest.mark.parametrize("argv", _FILE_COMMANDS)
def test_output_to_dev_null_exits_zero(capsys, argv):
    """/dev/null is seekable but cannot be truncated, so it is written as open writes it."""
    assert _run(capsys, argv + ["--output", "/dev/null"]) == (0, "", "")


def _write_through_a_fifo(capsys, fifo, argv):
    """main's exit code and the bytes a reader thread drains from the FIFO
    `fifo`, to which main writes. The test holds a write end of its own
    until main returns, so the reader waits for main's writes and sees the
    end of them, and hangs on no error of main's."""
    os.mkfifo(fifo)
    # a read end opened without blocking lets every write end open at once
    read_end = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    held = os.open(fifo, os.O_WRONLY)
    os.set_blocking(read_end, True)
    chunks = []

    def drain():
        with open(read_end, "rb") as reader:
            chunks.extend(iter(lambda: reader.read(1 << 16), b""))

    reader = threading.Thread(target=drain)
    reader.start()
    try:
        code = _run(capsys, argv)[0]
    finally:
        os.close(held)
        reader.join(timeout=60)
    assert not reader.is_alive()
    return code, b"".join(chunks)


_PIPED = [
    pytest.param(_FRINGE + ["--grid-points", "65536"], "", id="fringe-65536"),  # about 2.4 MB
    pytest.param(["campaign", "--scenario", "mixed_pure", "--n", "3", "--trials", "2000", "--seed", "1"], ".csv",
                 id="campaign-csv"),
    pytest.param(_VERIFY, "", id="verify-json"),
]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo")
@pytest.mark.parametrize("short_writes", [False, True], ids=["whole-writes", "short-writes"])
@pytest.mark.parametrize("argv, suffix", _PIPED)
def test_output_to_a_fifo_equals_a_file_write(capsys, monkeypatch, tmp_path, argv, suffix, short_writes):
    """An output written to a FIFO, far beyond a 64 KiB pipe buffer, equals
    the bytes the same command writes to a regular file; so it does when
    every write takes at most 4000 bytes, as a pipe may take part of one."""
    assert _run(capsys, argv + ["--output", str(tmp_path / "file")])[0] == 0
    if short_writes:
        write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:4000]))
    code, piped = _write_through_a_fifo(capsys, tmp_path / f"fifo{suffix}", argv + ["--output", str(tmp_path / "fifo")])
    assert code == 0
    assert piped == (tmp_path / f"file{suffix}").read_bytes()


# ------------------------------------------------------------ exit codes

# n = 32, whose pure_pure composite 32*32 fits MAX_COMPOSITE_DIM, so that each
# command reaches its builder; at a larger n the CLI names the composite bound first
@pytest.mark.parametrize("argv, builder", [
    (["sweep", "--n", "32", "--gammas", "0.5"], "duality_lab.duality._uniform_overlap_grams"),
    (["fringe", "--n", "32", "--gamma", "0.5"], "duality_lab.cli.symmetric_detectors"),
    (["verify", "--n", "32", "--gamma", "0.5"], "duality_lab.cli.uniform_overlap_detectors"),
])
def test_configuration_too_large_to_allocate_exits_two(capsys, monkeypatch, argv, builder):
    """An allocation that fails is a configuration error (exit 2), not a
    violated relation (exit 1). The builder raises as numpy does on an
    oversized array, so nothing large is allocated here."""
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000)")

    monkeypatch.setattr(builder, too_large)
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == "error: configuration too large: Unable to allocate 7.28 TiB for an array with shape " \
                  "(1000000, 1000000)\n"
