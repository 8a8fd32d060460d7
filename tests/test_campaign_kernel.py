"""The stacked campaign kernel against the per-trial path it replaced.

run_campaign draws every trial from stream(seed, k) and evaluates the
draws in (n, detector dimension) stacks. `_draw_report` is the per-trial
oracle: it draws trial k with the public random_* generators and
evaluates it with the single-instance evaluate_* functions. Every report
must equal the oracle's with ==, field by field, not within a tolerance.
"""

import numpy as np
import pytest

from duality_lab import duality
from duality_lab.cli import main
from duality_lab.duality import (
    SCENARIOS,
    STACK_BYTES,
    evaluate_mixed,
    evaluate_mixed_detector,
    evaluate_pure,
    run_campaign,
)
from duality_lab.random import random_density, random_detectors, random_mixed_detector, random_pure, stream


def _draw_report(scenario, rng, n_choices, detector_dim, rank):
    n = int(n_choices[rng.integers(len(n_choices))])
    dim = detector_dim if detector_dim is not None else int(rng.integers(n, 2 * n, endpoint=True))
    if scenario == "pure_pure":
        return evaluate_pure(random_pure(n, rng), random_detectors(n, dim, rng))
    r = rank if rank is not None else int(rng.integers(1, n, endpoint=True))
    if scenario == "mixed_pure":
        return evaluate_mixed(random_density(n, r, rng), random_detectors(n, dim, rng))
    quanton = random_density(n, r, rng)
    return evaluate_mixed_detector(quanton, random_mixed_detector(n, dim, rng))


def _assert_matches_oracle(scenario, trials, seed, n, detector_dim=None, rank=None):
    result = run_campaign(scenario, trials, seed, n=n, detector_dim=detector_dim, rank=rank)
    n_choices = (n,) if isinstance(n, int) else tuple(n)
    assert len(result.reports) == trials
    for k, report in enumerate(result.reports):
        assert report == _draw_report(scenario, stream(seed, k), n_choices, detector_dim, rank), k


@pytest.fixture
def stacks(monkeypatch):
    """Records (trials, held bytes) of every stack the kernel evaluates."""
    seen = []
    evaluate = duality._evaluate_stack

    def recording(scenario, n, dim, entries, reports):
        seen.append((len(entries), sum(duality._held_bytes(draws) for _, draws in entries)))
        return evaluate(scenario, n, dim, entries, reports)

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
