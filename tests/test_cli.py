import json

import numpy as np
import pytest

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


def test_fringe_rejects_small_grid(capsys):
    code, _, err = _run(capsys, ["fringe", "--n", "2", "--gamma", "0.5", "--grid-points", "64"])
    assert code == 2
    assert "grid-points" in err
