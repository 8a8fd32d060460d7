import argparse
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from duality_lab import cli
from duality_lab.cli import main


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
                   f"--amplitudes must be finite, got ['1', '{value}']", id=f"amplitudes-{value}")
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
                 "rank must lie in 1..3, got 4", id="verify-rank"),
    pytest.param(["campaign", "--scenario", "mixed_mixed", "--n", "3", "--trials", "3", "--seed", "1",
                  "--rank", "0"], None, "rank must lie in 1..3, got 0", id="campaign-rank"),
    pytest.param(["sweep", "--scenario", "mixed_pure", "--n", "3", "--seed", "1", "--gammas", "0.5",
                  "--rank", "4"], None, "rank must lie in 1..3, got 4", id="sweep-rank"),
    pytest.param(["verify", "--n", "3", "--seed", "1", "--detector-dim", "0"], None,
                 "detector dimension must be >= 1", id="verify-detector-dim"),
    pytest.param(["campaign", "--scenario", "pure_pure", "--n", "3", "--trials", "3", "--seed", "1",
                  "--detector-dim", "0"], None, "detector dimension must be >= 1, got 0",
                 id="campaign-detector-dim"),
    *(pytest.param(["fringe", "--n", "2", "--gamma", "0.5", "--grid-points", points], None,
                   f"--grid-points must be {bound}", id=f"fringe-grid-points-{points}")
      for points, bound in (("64", ">= 256, got 64"), ("65537", "<= 65536, got 65537"))),
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
        assert "cannot read complex number from boolean" in err


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
    assert err == f"error: trials must lie in 1..2^32, got {2**32 + 1}\n"
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
    assert "detector dimension" in err
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


# ------------------------------------------------------------ exit codes

@pytest.mark.parametrize("argv, builder", [
    (["sweep", "--n", "1000000", "--gammas", "0.5"], "duality_lab.duality._uniform_overlap_grams"),
    (["fringe", "--n", "1000000", "--gamma", "0.5"], "duality_lab.cli.symmetric_detectors"),
    (["verify", "--n", "1000000", "--gamma", "0.5"], "duality_lab.cli.uniform_overlap_detectors"),
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
