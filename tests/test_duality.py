import io
import json
import math
import re

import numpy as np
import pytest

from duality_lab import duality
from duality_lab.cli import main
from duality_lab.duality import (
    SCENARIOS,
    evaluate_mixed,
    evaluate_mixed_detector,
    evaluate_pure,
    run_campaign,
    sweep_overlap,
)
from duality_lab.interference import symmetric_detectors
from duality_lab.linalg import validate_density
from duality_lab.random import (
    haar_unitary,
    random_density,
    random_density_matrix,
    random_detectors,
    random_pure,
    uniform_overlap_detectors,
)
from duality_lab.states import (
    DetectorSet,
    MixedDetectorInteraction,
    MixedQuanton,
    PureQuanton,
    induced_detectors,
)


def _equal_pure(n):
    return PureQuanton(amplitudes=np.full(n, 1.0 / math.sqrt(n), dtype=complex))


def _loop_mixed_quantities(rho, gram):
    """Independent explicit-loop evaluation of C, D_Q, and the slack."""
    n = rho.shape[0]
    c = d_cross = s = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            pij = math.sqrt(rho[i, i].real * rho[j, j].real)
            c += abs(rho[i, j] * np.conj(gram[i, j]))
            d_cross += pij * abs(gram[i, j])
            s += (pij - abs(rho[i, j])) * abs(gram[i, j])
    return c / (n - 1), 1.0 - d_cross / (n - 1), s / (n - 1)


# ------------------------------------------------------------- evaluate_pure

def test_evaluate_pure_orthogonal_detectors():
    report = evaluate_pure(random_pure(3, 1), DetectorSet(np.eye(3, dtype=complex)))
    assert abs(report.coherence) <= 1e-12
    assert abs(report.distinguishability - 1.0) <= 1e-12
    assert report.slack == 0.0
    assert report.passed


def test_evaluate_pure_two_path_hand_values():
    report = evaluate_pure(_equal_pure(2), uniform_overlap_detectors(2, 0.6, 2, 2))
    assert abs(report.coherence - 0.6) <= 1e-10
    assert abs(report.distinguishability - 0.4) <= 1e-10
    assert report.scenario == "pure_pure"


def test_evaluate_pure_duality_equality_campaign():
    rng = np.random.default_rng(90)
    worst = 0.0
    for _ in range(2000):
        n = int(rng.integers(2, 9))
        dim = int(rng.integers(n, 2 * n + 1))
        report = evaluate_pure(random_pure(n, rng), random_detectors(n, dim, rng))
        worst = max(worst, abs(report.relation_residuals["duality_sum"]))
        assert report.passed
    assert worst <= 1e-10


# ------------------------------------------------------------ evaluate_mixed

def test_evaluate_mixed_pure_input_reduces_to_pure_case():
    rng = np.random.default_rng(91)
    q = random_pure(3, rng)
    d = random_detectors(3, 4, rng)
    pure_report = evaluate_pure(q, d)
    mixed_report = evaluate_mixed(q.to_mixed(), d)
    assert abs(mixed_report.slack) <= 1e-10
    assert abs(mixed_report.coherence - pure_report.coherence) <= 1e-10
    assert abs(mixed_report.distinguishability - pure_report.distinguishability) <= 1e-10


def test_evaluate_mixed_maximally_mixed_quanton():
    q = MixedQuanton(rho=validate_density(np.eye(4) / 4))
    d = random_detectors(4, 5, 92)
    report = evaluate_mixed(q, d)
    assert abs(report.coherence) <= 1e-12
    assert abs(report.slack - (1.0 - report.distinguishability)) <= 1e-12
    assert report.passed


def test_evaluate_mixed_against_loop_oracle():
    q = random_density(4, 2, 93)
    d = uniform_overlap_detectors(4, 0.3, 4, 94)
    report = evaluate_mixed(q, d)
    c, dq, s = _loop_mixed_quantities(q.rho.matrix, d.gram)
    assert abs(report.coherence - c) <= 1e-10
    assert abs(report.distinguishability - dq) <= 1e-10
    assert abs(report.slack - s) <= 1e-10
    assert abs(report.relation_residuals["slack_identity"]) <= 1e-10


def test_evaluate_mixed_slack_identity_campaign():
    rng = np.random.default_rng(95)
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        q = random_density(n, int(rng.integers(1, n + 1)), rng)
        d = random_detectors(n, int(rng.integers(n, 2 * n + 1)), rng)
        report = evaluate_mixed(q, d)
        assert abs(report.relation_residuals["slack_identity"]) <= 1e-10
        assert report.slack >= -1e-10
        assert report.passed


# --------------------------------------------------- evaluate_mixed_detector

def test_evaluate_mixed_detector_pure_state_matches_mixed_pipeline():
    rng = np.random.default_rng(96)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        dim = int(rng.integers(n, 2 * n + 1))
        q = random_density(n, int(rng.integers(1, n + 1)), rng)
        m = MixedDetectorInteraction(
            rho_d=random_density_matrix(dim, 1, rng),
            unitaries=np.stack([haar_unitary(dim, rng) for _ in range(n)]),
        )
        general = evaluate_mixed_detector(q, m)
        special = evaluate_mixed(q, induced_detectors(m))
        assert abs(general.coherence - special.coherence) <= 1e-10
        assert abs(general.distinguishability - special.distinguishability) <= 1e-10


def test_evaluate_mixed_detector_orthogonal_branches():
    # cyclic shifts of a diagonal detector state give identity branch grams
    n = dim = 3
    shift = np.roll(np.eye(dim, dtype=complex), 1, axis=0)
    unitaries = np.stack([np.linalg.matrix_power(shift, k) for k in range(n)])
    m = MixedDetectorInteraction(
        rho_d=validate_density(np.diag([0.5, 0.3, 0.2])), unitaries=unitaries
    )
    report = evaluate_mixed_detector(random_density(n, 2, 97), m)
    assert abs(report.coherence) <= 1e-12
    assert abs(report.distinguishability - 1.0) <= 1e-12
    assert abs(report.slack) <= 1e-12
    assert report.passed


def test_evaluate_mixed_detector_campaign_sample():
    rng = np.random.default_rng(98)
    for _ in range(300):
        n = int(rng.integers(2, 6))
        dim = int(rng.integers(n, 2 * n + 1))
        q = random_density(n, int(rng.integers(1, n + 1)), rng)
        m = MixedDetectorInteraction(
            rho_d=random_density_matrix(dim, int(rng.integers(1, dim + 1)), rng),
            unitaries=np.stack([haar_unitary(dim, rng) for _ in range(n)]),
        )
        report = evaluate_mixed_detector(q, m)
        assert report.relation_residuals["duality_sum"] <= 1e-9
        assert report.relation_residuals["coherence_bound_margin"] >= -1e-10
        assert report.passed


# --------------------------------------------------------------- sweep_overlap

def test_sweep_two_path_pure_closed_form():
    gammas = [0.0, 0.25, 0.5, 0.75, 1.0]
    reports = sweep_overlap(2, gammas, _equal_pure(2))
    for gamma, report in zip(gammas, reports):
        assert abs(report.coherence - gamma) <= 1e-10
        assert abs(report.distinguishability - (1.0 - gamma)) <= 1e-10
        assert report.visibility is not None


def test_sweep_monotone_for_pure_and_mixed():
    gammas = list(np.linspace(0.0, 1.0, 11))
    for n in (2, 3, 4):
        for quanton in (random_pure(n, 99), random_density(n, 2, 100)):
            reports = sweep_overlap(n, gammas, quanton)
            cs = [r.coherence for r in reports]
            ds = [r.distinguishability for r in reports]
            assert all(b >= a - 1e-12 for a, b in zip(cs, cs[1:]))
            assert all(b <= a + 1e-12 for a, b in zip(ds, ds[1:]))


def test_sweep_rejects_bad_grids():
    q = _equal_pure(2)
    with pytest.raises(ValueError, match="empty"):
        sweep_overlap(2, [], q)
    with pytest.raises(ValueError, match="ascending"):
        sweep_overlap(2, [0.5, 0.1], q)
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        sweep_overlap(2, [0.5, 1.5], q)
    with pytest.raises(ValueError, match="path count mismatch: quanton has 2, detectors have 3"):
        sweep_overlap(3, [0.5], q)


@pytest.mark.parametrize("evaluate, quanton, detectors, other", [
    (evaluate_pure, _equal_pure(2), DetectorSet(np.eye(3, dtype=complex)), "detectors have 3"),
    (evaluate_mixed_detector, _equal_pure(2).to_mixed(),
     MixedDetectorInteraction(rho_d=validate_density(np.eye(2) / 2),
                              unitaries=np.stack([np.eye(2, dtype=complex)] * 3)),
     "interaction has 3"),
], ids=["pure", "mixed_detector"])
def test_evaluate_rejects_a_path_count_mismatch(evaluate, quanton, detectors, other):
    with pytest.raises(ValueError, match=f"path count mismatch: quanton has 2, {other}"):
        evaluate(quanton, detectors)


# ---------------------------------------------------------------- campaigns

def test_run_campaign_validation():
    with pytest.raises(ValueError, match="trials"):
        run_campaign("pure_pure", 0, 1)
    with pytest.raises(ValueError, match="scenario"):
        run_campaign("nope", 10, 1)
    with pytest.raises(ValueError, match="path counts"):
        run_campaign("pure_pure", 10, 1, n=1)


def _no_draws(*args):
    raise AssertionError("a trial was drawn")


@pytest.fixture
def no_draws(monkeypatch):
    # the campaign's one generator comes from stream, every trial's first
    # draws from _trial_shapes and the rest from _draw_stack
    for name in ("stream", "_trial_shapes", "_draw_stack"):
        monkeypatch.setattr(duality, name, _no_draws)


def test_run_campaign_checks_rank_before_drawing(no_draws):
    for scenario in ("mixed_pure", "mixed_mixed"):
        with pytest.raises(ValueError, match=r"rank must lie in 1\.\.2, got 3"):
            run_campaign(scenario, 10, 1, n=(3, 2), rank=3)
        with pytest.raises(ValueError, match=r"rank must lie in 1\.\.3, got 0"):
            run_campaign(scenario, 10, 1, n=3, rank=0)
    for rank in (9, 0, 1):
        with pytest.raises(ValueError, match=rf"rank is not read by the pure_pure scenario, got {rank}"):
            run_campaign("pure_pure", 3, 1, n=3, rank=rank)


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("n", [2**32, (3, 2**32), [2**40, 2]])
def test_run_campaign_rejects_path_counts_from_2_to_the_32_before_drawing(no_draws, scenario, n):
    """random._bounded draws the detector dimension over n..2n only for n < 2^32."""
    with pytest.raises(ValueError, match=r"^path counts must lie in 2\.\.2\^32 - 1, got \("):
        run_campaign(scenario, 1, 1, n=n)


HUGE_PATHS = """
from duality_lab.duality import run_campaign
try:
    run_campaign({scenario!r}, 1, 1, n=2**32)
except ValueError as exc:
    print(exc)
"""


@pytest.mark.parametrize("scenario", ["mixed_pure", "mixed_mixed"])
def test_campaign_of_2_to_the_32_paths_exits_instead_of_hanging(child_python, tmp_path, scenario):
    """At n = 2^32 a mixed campaign's dimension draw once looped forever, so
    both calls run in a child process, which the fixture's timeout ends."""
    message = "path counts must lie in 2..2^32 - 1, got (4294967296,)"
    library = child_python("-c", HUGE_PATHS.format(scenario=scenario))
    assert (library.returncode, library.stdout, library.stderr) == (0, message + "\n", "")
    cli = child_python("-m", "duality_lab.cli", "campaign", "--scenario", scenario, "--n", str(2**32),
                       "--trials", "1", "--seed", "1")
    assert (cli.returncode, cli.stdout, cli.stderr) == (2, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


# n = 2^31: a quanton stack of 2^66 bytes, past numpy's size limit, which numpy
# reports as a ValueError; n = 2^28: 2^60 bytes, within it but past any 64-bit
# address space, so the allocation fails on any host, however it overcommits
TOO_LARGE_TO_ALLOCATE = [(scenario, n) for scenario in ("mixed_pure", "mixed_mixed") for n in (2**31, 2**28)]
ALLOCATION_FAILED = r"^Unable to allocate .*an array with shape \(1, {n}, {n}\) and data type complex128"


@pytest.mark.parametrize("scenario, n", TOO_LARGE_TO_ALLOCATE)
def test_campaign_too_large_to_allocate_raises_memory_error_naming_no_trial(scenario, n):
    with pytest.raises(MemoryError, match=ALLOCATION_FAILED.format(n=n)):
        run_campaign(scenario, 1, 1, n=n)


@pytest.mark.parametrize("scenario", ["mixed_pure", "mixed_mixed"])
@pytest.mark.parametrize("seed", range(6))
def test_campaign_that_may_draw_too_large_a_trial_fails_on_every_seed(no_draws, scenario, seed):
    """Whether a campaign fits does not depend on the path counts its seed draws:
    the largest trial its options allow is allocated before the first draw."""
    with pytest.raises(MemoryError, match=ALLOCATION_FAILED.format(n=2**28)):
        run_campaign(scenario, 1, seed, n=(2, 2**28))


@pytest.mark.parametrize("scenario, n", TOO_LARGE_TO_ALLOCATE)
def test_campaign_too_large_to_allocate_exits_two_as_too_large(capsys, tmp_path, scenario, n):
    code = main(["campaign", "--scenario", scenario, "--n", str(n), "--trials", "1", "--seed", "1",
                 "--output", str(tmp_path / "run")])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert re.match("error: configuration too large: " + ALLOCATION_FAILED.format(n=n)[1:], captured.err)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("n", [[2.9, 3.7], 3.0, np.array([2.0, 3.0]), "23", [3, None]])
def test_run_campaign_rejects_path_counts_that_are_not_integers(no_draws, n):
    with pytest.raises(ValueError, match="^path counts must be integers, got "):
        run_campaign("pure_pure", 5, 1, n=n)


@pytest.mark.parametrize("scenario, kwargs, message", [
    ("pure_pure", {"trials": True}, "trials must be an integer, got True"),
    ("pure_pure", {"trials": 3.0}, "trials must be an integer, got 3.0"),
    ("pure_pure", {"seed": 1.5}, "seed must be an integer, got 1.5"),
    ("pure_pure", {"seed": True}, "seed must be an integer, got True"),
    ("mixed_pure", {"rank": 2.0}, "rank must be an integer, got 2.0"),
    ("mixed_mixed", {"rank": True}, "rank must be an integer, got True"),
    ("mixed_pure", {"detector_dim": 3.5}, "detector dimension must be an integer, got 3.5"),
    ("pure_pure", {"detector_dim": True}, "detector dimension must be an integer, got True"),
    ("pure_pure", {"n": True}, "path counts must be integers, got True"),
    ("mixed_pure", {"n": (3, False)}, r"path counts must be integers, got \(3, False\)"),
])
def test_run_campaign_rejects_counts_that_are_not_integers(no_draws, scenario, kwargs, message):
    """A bool or a float is no count, even where its value would pass the range checks."""
    args = {"trials": 3, "seed": 1, "n": 3, **kwargs}
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_campaign(scenario, args.pop("trials"), args.pop("seed"), **args)


def _csv(result):
    out = io.StringIO()
    result.to_csv(out)
    return out.getvalue()


@pytest.mark.parametrize("n", [np.int64(3), np.array(3), [np.int32(3)], np.array([3])])
def test_run_campaign_takes_numpy_path_counts(n):
    assert _csv(run_campaign("mixed_pure", 5, 1, n=n)) == _csv(run_campaign("mixed_pure", 5, 1, n=3))


def test_run_campaign_takes_numpy_counts():
    result = run_campaign("mixed_mixed", np.int64(5), np.uint32(1), n=3, detector_dim=np.int32(4), rank=np.int16(2))
    assert _csv(result) == _csv(run_campaign("mixed_mixed", 5, 1, n=3, detector_dim=4, rank=2))
    assert type(result.aggregate()["trials"]) is int and type(result.aggregate()["seed"]) is int


@pytest.mark.parametrize("trials", [0, -1, 2**32 + 1])
def test_run_campaign_checks_the_trial_count_before_drawing(no_draws, trials):
    """A trial index takes one spawn-key word, so 2^32 trials is the most."""
    for scenario in SCENARIOS:
        with pytest.raises(ValueError, match=rf"^trials must lie in 1\.\.2\^32, got {trials}$"):
            run_campaign(scenario, trials, 1, n=3)


@pytest.mark.parametrize("n", [23, (2, 23)])
@pytest.mark.parametrize("seed", [0, 1])
def test_pure_pure_composite_bound_is_checked_before_the_first_draw(monkeypatch, n, seed):
    """The largest composite the options allow (n * 2n by default) is checked
    before any draw, so whether a campaign fits does not depend on the seed."""
    with monkeypatch.context() as patched:
        patched.setattr(duality, "_trial_shapes", _no_draws)
        with pytest.raises(ValueError, match=r"composite dimension 23\*46 exceeds the configured maximum 1024"):
            run_campaign("pure_pure", 8, seed, n=n)
    assert run_campaign("pure_pure", 8, seed, n=22).passed
    assert run_campaign("pure_pure", 8, seed, n=n, detector_dim=44).passed


def test_run_campaign_deterministic():
    a = run_campaign("mixed_pure", 40, 7, n=3)
    b = run_campaign("mixed_pure", 40, 7, n=3)
    for ra, rb in zip(a.reports, b.reports):
        assert ra.coherence == rb.coherence
        assert ra.distinguishability == rb.distinguishability
        assert ra.relation_residuals == rb.relation_residuals


def test_campaign_aggregate_and_csv(tmp_path):
    result = run_campaign("mixed_mixed", 25, 13, n=3)
    agg = result.aggregate()
    assert agg["violations"] == 0
    assert agg["passed"] is True
    assert "min_coherence_bound_margin" in agg
    assert set(agg["max_abs_residuals"]) == {"duality_sum", "coherence_bound_margin", "psd_margin_min"}
    out = tmp_path / "rows.csv"
    result.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("trial,seed,scenario,n,")
    assert len(lines) == 26
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "13" and first[2] == "mixed_mixed"
    # identical rerun is byte-identical
    out2 = tmp_path / "rows2.csv"
    run_campaign("mixed_mixed", 25, 13, n=3).to_csv(out2)
    assert out.read_bytes() == out2.read_bytes()


def test_campaign_all_scenarios_pass_smoke():
    for scenario in SCENARIOS:
        result = run_campaign(scenario, 50, 17, n=(2, 3, 4))
        assert result.passed, scenario


# ------------------------------------------------------------------- reports

def test_report_json_schema():
    report = evaluate_pure(_equal_pure(2), symmetric_detectors(2, 0.5), include_visibility=True)
    data = json.loads(report.to_json())
    assert list(data) == [
        "scenario", "n", "coherence", "distinguishability", "slack",
        "visibility", "relation_residuals", "verdicts", "passed",
    ]
    assert data["scenario"] == "pure_pure"
    assert data["visibility"] == pytest.approx(0.5, abs=1e-9)
    assert data["passed"] is True


def test_report_verdict_keys_per_scenario():
    pure = evaluate_pure(_equal_pure(2), symmetric_detectors(2, 0.5))
    assert set(pure.verdicts) == {"duality_sum", "psd_margin_min"}
    mixed = evaluate_mixed(random_density(3, 2, 19), random_detectors(3, 3, 20))
    assert set(mixed.verdicts) == {
        "duality_sum", "slack_identity", "psd_margin_min", "slack_nonnegative",
    }
    rng = np.random.default_rng(21)
    interaction = MixedDetectorInteraction(
        rho_d=random_density_matrix(3, 2, rng),
        unitaries=np.stack([haar_unitary(3, rng) for _ in range(3)]),
    )
    general = evaluate_mixed_detector(random_density(3, 2, rng), interaction)
    assert set(general.verdicts) == {"duality_sum", "coherence_bound_margin", "psd_margin_min"}


# ---------------------------------------------- the failing side of each verdict

def _shift_coherence(monkeypatch, delta):
    """Every kernel then reports the coherence it computes plus delta."""
    coherence = duality._coherence
    monkeypatch.setattr(duality, "_coherence", lambda rho: coherence(rho) + delta)


def _saturating_mixed_mixed(n, dim, seed):
    """A rank-1 quanton and a rank-1 detector state: C + D_Q = 1 and the
    coherence equals its branch-average bound."""
    rng = np.random.default_rng(seed)
    quanton = random_density(n, 1, rng)
    rho_d = np.zeros((dim, dim), dtype=complex)
    rho_d[0, 0] = 1.0
    interaction = MixedDetectorInteraction(rho_d=validate_density(rho_d),
                                           unitaries=np.stack([haar_unitary(dim, rng) for _ in range(n)]))
    return quanton, interaction


@pytest.mark.parametrize("factor, passes", [(2.0, False), (-2.0, False), (0.5, True), (-0.5, True)])
def test_pure_pure_duality_sum_verdict_is_two_sided(monkeypatch, factor, passes):
    _shift_coherence(monkeypatch, factor * duality.TOLERANCE)
    report = evaluate_pure(random_pure(4, 31), random_detectors(4, 5, 32))
    assert report.verdicts == {"duality_sum": passes, "psd_margin_min": True}
    assert report.passed is passes


@pytest.mark.parametrize("factor, passes", [(2.0, False), (-2.0, False), (0.5, True), (-0.5, True)])
def test_mixed_pure_slack_identity_verdict_is_two_sided(monkeypatch, factor, passes):
    _shift_coherence(monkeypatch, factor * duality.TOLERANCE)
    report = evaluate_mixed(random_density(4, 2, 33), random_detectors(4, 5, 34))
    assert report.verdicts == {"duality_sum": True, "slack_identity": passes, "psd_margin_min": True,
                               "slack_nonnegative": True}
    assert report.passed is passes


@pytest.mark.parametrize("delta, duality_ok, bound_ok", [
    (2 * duality.TOLERANCE, False, False),
    (-2 * duality.TOLERANCE, True, True),
    (2 * duality.MARGIN_TOL, True, False),
])
def test_mixed_mixed_verdicts_at_saturation(monkeypatch, delta, duality_ok, bound_ok):
    quanton, interaction = _saturating_mixed_mixed(3, 4, 35)
    unshifted = evaluate_mixed_detector(quanton, interaction)
    assert abs(unshifted.relation_residuals["duality_sum"]) < 1e-14
    assert abs(unshifted.relation_residuals["coherence_bound_margin"]) < 1e-14
    _shift_coherence(monkeypatch, delta)
    report = evaluate_mixed_detector(quanton, interaction)
    assert report.verdicts == {"duality_sum": duality_ok, "coherence_bound_margin": bound_ok,
                               "psd_margin_min": True}
    assert report.passed is (duality_ok and bound_ok)


@pytest.mark.parametrize("factor, passes", [(-2.0, False), (-0.5, True)])
def test_mixed_pure_slack_nonnegative_verdict(monkeypatch, factor, passes):
    # a pure quanton state has slack 0, so the shift alone decides the sign
    slack = duality._slack
    monkeypatch.setattr(duality, "_slack", lambda rho, gram: slack(rho, gram) + factor * duality.MARGIN_TOL)
    report = evaluate_mixed(random_density(4, 1, 36), random_detectors(4, 5, 37))
    assert report.verdicts == {"duality_sum": True, "slack_identity": True, "psd_margin_min": True,
                               "slack_nonnegative": passes}


@pytest.mark.parametrize("factor, passes", [(-2.0, False), (-0.5, True)])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_psd_margin_verdict(monkeypatch, scenario, factor, passes):
    margin = factor * duality.MARGIN_TOL
    monkeypatch.setattr(duality, "_submatrix_margin", lambda m: np.full(m.shape[:-2], margin))
    report = run_campaign(scenario, 1, 38, n=3).reports[0]
    assert report.relation_residuals["psd_margin_min"] == margin
    assert report.verdicts["psd_margin_min"] is passes
    assert report.passed is passes


def test_verify_exits_one_on_a_violated_relation(monkeypatch, capsys):
    _shift_coherence(monkeypatch, 2 * duality.TOLERANCE)
    code = main(["verify", "--scenario", "pure_pure", "--n", "3", "--gamma", "0.4"])
    out = capsys.readouterr().out
    assert code == 1
    assert '"passed": false' in out
    assert json.loads(out)["verdicts"]["duality_sum"] is False


def test_campaign_exits_one_and_lists_the_violations(monkeypatch, capsys, tmp_path):
    _shift_coherence(monkeypatch, 2 * duality.TOLERANCE)
    code = main(["campaign", "--scenario", "pure_pure", "--n", "3", "--trials", "20", "--seed", "4",
                 "--output", str(tmp_path / "run")])
    capsys.readouterr()
    assert code == 1
    aggregate = json.loads((tmp_path / "run.json").read_text())
    assert aggregate["violations"] == 20
    assert aggregate["violating_trials"] == list(range(16))
    assert aggregate["passed"] is False
    rows = (tmp_path / "run.csv").read_text().splitlines()[1:]
    assert [row.rsplit(",", 1)[1] for row in rows] == ["false"] * 20


def test_report_keys_follow_the_json_order_and_fields_are_builtins():
    """The key order of relation_residuals and verdicts is the order of the
    JSON report; every field is a Python float or bool, not a numpy scalar."""
    reports = [
        evaluate_pure(random_pure(3, 41), random_detectors(3, 3, 42), include_visibility=True),
        evaluate_mixed(random_density(3, 2, 43), random_detectors(3, 4, 44)),
        *run_campaign("mixed_mixed", 3, 45, n=3).reports,
    ]
    keys = {
        "pure_pure": (["duality_sum", "psd_margin_min"], ["duality_sum", "psd_margin_min"]),
        "mixed_pure": (["duality_sum", "slack_identity", "psd_margin_min"],
                       ["duality_sum", "slack_identity", "psd_margin_min", "slack_nonnegative"]),
        "mixed_mixed": (["duality_sum", "coherence_bound_margin", "psd_margin_min"],
                        ["duality_sum", "coherence_bound_margin", "psd_margin_min"]),
    }
    for report in reports:
        assert (list(report.relation_residuals), list(report.verdicts)) == keys[report.scenario]
        assert list(json.loads(report.to_json())["verdicts"]) == keys[report.scenario][1]
        floats = [report.coherence, report.distinguishability, report.slack, *report.relation_residuals.values()]
        if report.visibility is not None:
            floats.append(report.visibility)
        assert all(type(v) is float for v in floats)
        assert all(type(v) is bool for v in report.verdicts.values())
        assert type(report.n) is int
