"""The stacked kernel against the per-object composition it replaced.

Campaigns, evaluate_* and sweep_overlap all run each scenario's kernel
(`duality._*_stack`). The oracle here composes the same scenario from the
public per-object functions instead: entangle_pure and reduce_quanton,
validate_density of rho * conj(G), reduce_quanton_mixed_detector with
branch_overlaps, and the public measures. `_draw_report` draws trial k
with the public random_* generators and composes it that way. Every
report must equal the oracle's with ==, field by field, not within a
tolerance.
"""

import sys

import numpy as np
import pytest

from duality_lab import duality
from duality_lab.cli import main
from duality_lab.duality import (
    SCENARIOS,
    STACK_BYTES,
    VISIBILITY_MAX_PATHS,
    evaluate_mixed,
    evaluate_mixed_detector,
    evaluate_pure,
    run_campaign,
    sweep_overlap,
)
from duality_lab.interference import scan_visibility, symmetric_detectors
from duality_lab.linalg import principal_submatrix_margin, validate_density
from duality_lab.measures import (
    coherence_bound_mixed_detector,
    coherence_normalized,
    distinguishability_mixed,
    distinguishability_mixed_detector,
    distinguishability_pure,
    mixed_duality_slack,
)
from duality_lab.random import (
    haar_unitary,
    random_density,
    random_detectors,
    random_mixed_detector,
    random_pure,
    stream,
    uniform_overlap_detectors,
)
from duality_lab.states import (
    MixedDetectorInteraction,
    MixedQuanton,
    PureQuanton,
    branch_overlaps,
    entangle_pure,
    reduce_quanton,
    reduce_quanton_mixed_detector,
)

EVALUATE = {"pure_pure": evaluate_pure, "mixed_pure": evaluate_mixed, "mixed_mixed": evaluate_mixed_detector}


def _oracle_report(scenario, quanton, detector, include_visibility=False):
    """One instance composed from the public per-object functions."""
    if scenario == "pure_pure":
        psi = entangle_pure(quanton, detector)
        reduced = reduce_quanton(np.outer(psi, psi.conj()), quanton.n, detector.dim)
        terms = (distinguishability_pure(quanton, detector),)
    elif scenario == "mixed_pure":
        reduced = MixedQuanton(rho=validate_density(quanton.rho.matrix * detector.gram.conj()))
        terms = (distinguishability_mixed(quanton, detector.gram), mixed_duality_slack(quanton, detector.gram))
    else:
        reduced = reduce_quanton_mixed_detector(quanton, detector)
        branches = branch_overlaps(detector)
        terms = (distinguishability_mixed_detector(quanton, branches),
                 coherence_bound_mixed_detector(quanton, branches))
    make = {"pure_pure": duality._pure_pure_report, "mixed_pure": duality._mixed_pure_report,
            "mixed_mixed": duality._mixed_mixed_report}[scenario]
    visibility = scan_visibility(reduced).visibility if include_visibility else None
    return make(reduced.n, coherence_normalized(reduced.rho), *terms, principal_submatrix_margin(reduced.rho),
                visibility)


def _draw_report(scenario, rng, n_choices, detector_dim, rank):
    """One campaign trial's objects, drawn with the public random_* generators
    in the campaign's draw order, and their oracle report."""
    n = int(n_choices[rng.integers(len(n_choices))])
    dim = detector_dim if detector_dim is not None else int(rng.integers(n, 2 * n, endpoint=True))
    if scenario == "pure_pure":
        objects = random_pure(n, rng), random_detectors(n, dim, rng)
    else:
        r = rank if rank is not None else int(rng.integers(1, n, endpoint=True))
        quanton = random_density(n, r, rng)
        draw_detector = random_detectors if scenario == "mixed_pure" else random_mixed_detector
        objects = quanton, draw_detector(n, dim, rng)
    return objects, _oracle_report(scenario, *objects)


def _assert_matches_oracle(scenario, trials, seed, n, detector_dim=None, rank=None):
    """Every campaign report, and evaluate_* on the same drawn objects, equal the oracle."""
    result = run_campaign(scenario, trials, seed, n=n, detector_dim=detector_dim, rank=rank)
    n_choices = (n,) if isinstance(n, int) else tuple(n)
    assert len(result.reports) == trials
    for k, report in enumerate(result.reports):
        objects, expected = _draw_report(scenario, stream(seed, k), n_choices, detector_dim, rank)
        assert report == expected, k
        assert EVALUATE[scenario](*objects) == expected, k


@pytest.fixture
def stacks(monkeypatch):
    """Records (trials, held bytes) of every stack the kernel evaluates."""
    seen = []
    evaluate = duality._evaluate_stack

    def recording(scenario, entries, reports):
        seen.append((len(entries), sum(duality._held_bytes(draws) for _, draws in entries)))
        return evaluate(scenario, entries, reports)

    monkeypatch.setattr(duality, "_evaluate_stack", recording)
    return seen


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("n", range(2, 9))
def test_kernel_matches_oracle_at_each_path_count(scenario, n):
    _assert_matches_oracle(scenario, 40, 300 + n, n)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_kernel_matches_oracle_with_interleaved_buckets(scenario, stacks):
    _assert_matches_oracle(scenario, 150, 17, tuple(range(2, 9)))
    assert len(stacks) > 7  # every path count, most in several stacks


@pytest.mark.parametrize("scenario, n, detector_dim, rank", [
    ("pure_pure", 5, 2, None),          # detector dimension below n
    ("mixed_pure", (3, 5), 4, 2),
    ("mixed_mixed", 4, 3, 1),
    ("mixed_mixed", (2, 3), None, 2),
])
def test_kernel_matches_oracle_with_fixed_dimension_and_rank(scenario, n, detector_dim, rank):
    _assert_matches_oracle(scenario, 60, 23, n, detector_dim, rank)


@pytest.mark.parametrize("scenario, n, dim", [("pure_pure", 2, 2), ("mixed_mixed", 8, 8)])
def test_kernel_matches_oracle_around_one_stack(scenario, n, dim, stacks):
    # a single (n, dim) bucket: its first stack is as large as STACK_BYTES allows
    run_campaign(scenario, 2000, 5, n=n, detector_dim=dim)
    stack = stacks[0][0]
    assert 2 < stack < 2000
    for trials, expected in ((1, [1]), (stack - 1, [stack - 1]), (stack + 1, [stack, 1])):
        stacks.clear()
        _assert_matches_oracle(scenario, trials, 5, n, dim)
        assert [count for count, _ in stacks] == expected


@pytest.mark.parametrize("scenario, n", [("pure_pure", 8), ("mixed_mixed", 6), ("mixed_pure", (2, 8))])
def test_stacks_hold_at_most_the_byte_budget(scenario, n, stacks):
    run_campaign(scenario, 300, 3, n=n)
    n_choices = (n,) if isinstance(n, int) else n
    largest = max(duality._held_bytes(duality.draw_trial(scenario, stream(3, k), n_choices, None, None)[2])
                  for k in range(300))
    assert sum(count for count, _ in stacks) == 300
    # a stack is evaluated once the draws held reach the budget, so it may
    # exceed the budget by at most the trial that tipped it over
    assert max(held for _, held in stacks) < STACK_BYTES + largest


def _nan_in_trial(monkeypatch, k):
    """Make the first draw of campaign trial k hold a NaN."""
    draw = duality.draw_trial
    calls = iter(range(10**6))

    def poisoned(*args):
        n, dim, draws = draw(*args)
        if next(calls) == k:
            draws[0].flat[0] = np.nan
        return n, dim, draws

    monkeypatch.setattr(duality, "draw_trial", poisoned)


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("k", [0, 7, 40])
def test_failing_check_names_the_trial(monkeypatch, scenario, k):
    _nan_in_trial(monkeypatch, k)
    with pytest.raises(ValueError, match=rf"^trial {k}: ") as info:
        run_campaign(scenario, 60, 11, n=3, detector_dim=3)
    # as on the per-trial path, the first check to see the NaN is a finiteness
    # check, which raises a plain ValueError, not a ValidationError subclass
    assert type(info.value) is ValueError


def test_failing_trial_exits_two_from_the_cli(monkeypatch, capsys, tmp_path):
    _nan_in_trial(monkeypatch, 5)
    code = main(["campaign", "--scenario", "mixed_pure", "--n", "4", "--trials", "20", "--seed", "2",
                 "--output", str(tmp_path / "run")])
    assert code == 2
    assert "error: trial 5: " in capsys.readouterr().err


def _equal_pure(n):
    return PureQuanton(amplitudes=np.full(n, 1.0 / np.sqrt(n), dtype=complex))


def _rank_deficient(n):
    """A quanton state with an exact zero eigenvalue: its last path is empty."""
    rho = np.zeros((n, n), dtype=complex)
    rho[:2, :2] = [[0.6, 0.3 - 0.1j], [0.3 + 0.1j, 0.4]]
    return MixedQuanton(rho=validate_density(rho))


def _zero_weight_detector(n, dim, seed):
    """A mixed detector whose detector state has an exact zero spectral weight."""
    rng = np.random.default_rng(seed)
    weights = np.linspace(2.0, 1.0, dim)
    weights[-1] = 0.0
    return MixedDetectorInteraction(rho_d=validate_density(np.diag(weights / weights.sum())),
                                    unitaries=np.stack([haar_unitary(dim, rng) for _ in range(n)]))


# inputs no campaign draws: exact overlaps 0, 0.5 and 1, quanton states with
# zero eigenvalues, and detector states with a zero spectral weight
@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("scenario, quanton, dim", [
    ("pure_pure", _equal_pure(3), 3),
    ("pure_pure", random_pure(4, 3), 6),
    ("mixed_pure", random_density(3, 2, 5), 3),
    ("mixed_pure", _rank_deficient(4), 5),
], ids=["pure_equal", "pure_random", "mixed_random", "mixed_zero_eigenvalue"])
def test_evaluate_matches_oracle_at_uniform_overlaps(scenario, quanton, dim, gamma):
    include_v = quanton.n <= VISIBILITY_MAX_PATHS
    for detectors in (symmetric_detectors(quanton.n, gamma), uniform_overlap_detectors(quanton.n, gamma, dim, 4)):
        expected = _oracle_report(scenario, quanton, detectors, include_v)
        assert EVALUATE[scenario](quanton, detectors, include_v) == expected


@pytest.mark.parametrize("scenario, quanton, detector", [
    ("mixed_pure", _rank_deficient(3), random_detectors(3, 4, 7)),
    ("mixed_pure", random_pure(4, 8).to_mixed(), random_detectors(4, 4, 9)),
    ("mixed_mixed", _rank_deficient(3), random_mixed_detector(3, 3, 10)),
    ("mixed_mixed", random_density(3, 2, 11), _zero_weight_detector(3, 4, 12)),
    ("mixed_mixed", random_density(4, 3, 13), _zero_weight_detector(4, 2, 14)),
], ids=["mixed_pure-zero_eigenvalue", "mixed_pure-pure_state", "mixed_mixed-zero_eigenvalue",
        "mixed_mixed-zero_weight", "mixed_mixed-pure_detector_state"])
def test_evaluate_matches_oracle_on_degenerate_states(scenario, quanton, detector):
    include_v = quanton.n <= VISIBILITY_MAX_PATHS
    expected = _oracle_report(scenario, quanton, detector, include_v)
    assert EVALUATE[scenario](quanton, detector, include_v) == expected


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("quanton", [
    _equal_pure, lambda n: random_pure(n, 14), lambda n: random_density(n, 2, 15), _rank_deficient,
], ids=["pure_equal", "pure_random", "mixed_random", "mixed_zero_eigenvalue"])
def test_sweep_matches_oracle(n, quanton):
    q = quanton(n)
    scenario = "pure_pure" if isinstance(q, PureQuanton) else "mixed_pure"
    gammas = [0.0, 0.25, 0.5, 0.75, 1.0]
    include_v = n <= VISIBILITY_MAX_PATHS
    expected = [_oracle_report(scenario, q, symmetric_detectors(n, g), include_v) for g in gammas]
    assert sweep_overlap(n, gammas, q) == expected


def test_no_command_forms_the_joint_state(monkeypatch, capsys, tmp_path):
    """verify, sweep, fringe and campaigns reach none of the joint-state functions,
    which serve only as oracles."""
    def forbidden(*args, **kwargs):
        raise AssertionError("the joint state was formed or traced")

    for module in [m for name, m in sys.modules.items() if name.startswith("duality_lab")]:
        for name in ("partial_trace_second", "entangle_pure", "joint_mixed", "reduce_quanton"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    commands = [
        ["verify", "--scenario", "pure_pure", "--n", "3", "--gamma", "0.4"],
        ["verify", "--scenario", "mixed_pure", "--n", "3", "--seed", "5"],
        ["verify", "--scenario", "mixed_mixed", "--n", "3", "--seed", "5"],
        ["sweep", "--n", "3", "--gammas", "0,0.5,1"],
        ["sweep", "--n", "3", "--scenario", "mixed_pure", "--seed", "5", "--gammas", "0,0.5,1"],
        ["fringe", "--n", "3", "--gamma", "0.5"],
        *(["campaign", "--scenario", scenario, "--n", "3", "--trials", "5", "--seed", "1",
           "--output", str(tmp_path / scenario)] for scenario in SCENARIOS),
    ]
    for argv in commands:
        assert main(argv) == 0, argv
    capsys.readouterr()
