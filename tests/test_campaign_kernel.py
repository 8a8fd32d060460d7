"""The stacked kernel against the per-object composition it replaced.

Campaigns, evaluate_* and sweep_overlap all run each scenario's kernel
(`duality._*_stack`). The oracle here composes the same scenario from the
public per-object functions instead: entangle_pure and reduce_quanton,
validate_density of rho * conj(G), reduce_quanton_mixed_detector with
branch_overlaps, and the public measures; it then builds the report
field by field from the README's schema. `_draw_report` draws trial k
with the public random_* generators and composes it that way. Every
report must equal the oracle's with ==, field by field, not within a
tolerance.

The CSV rows of campaigns, `verify` and `sweep` must equal, byte for byte,
the cells `_csv_cells` formats from a report by the README's rules, and a
campaign's aggregate must equal `_aggregate_oracle`, which walks its reports
one by one.
"""

import io
import json
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import duality_lab
from duality_lab import duality
from duality_lab import random as lab_random
from duality_lab.cli import SWEEP_CSV_COLUMNS, VERIFY_CSV_COLUMNS, main
from duality_lab.duality import (
    CSV_COLUMNS,
    SCENARIOS,
    STACK_BYTES,
    VISIBILITY_MAX_PATHS,
    DualityReport,
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
    _draw_shape,
    _draw_stack,
    _position,
    haar_unitary,
    random_density,
    random_density_matrix,
    random_detectors,
    random_mixed_detector,
    random_pure,
    stream,
    uniform_overlap_detectors,
)
from duality_lab.states import (
    BranchOverlaps,
    MixedDetectorInteraction,
    MixedQuanton,
    PureQuanton,
    branch_overlaps,
    entangle_pure,
    reduce_quanton,
    reduce_quanton_mixed_detector,
)

EVALUATE = {"pure_pure": evaluate_pure, "mixed_pure": evaluate_mixed, "mixed_mixed": evaluate_mixed_detector}


# the README's thresholds: |duality_sum| <= 1e-9 for pure_pure and <= 1e-9 from
# above for the mixed scenarios, |slack_identity| <= 1e-9, every margin >= -1e-10
SUM_TOL = 1e-9
MARGIN_TOL = 1e-10


def _oracle_report(scenario, quanton, detector, include_visibility=False):
    """One instance composed from the public per-object functions, and its
    report built field by field from the README's schema."""
    if scenario == "pure_pure":
        psi = entangle_pure(quanton, detector)
        reduced = reduce_quanton(np.outer(psi, psi.conj()), quanton.n, detector.dim)
        dq = distinguishability_pure(quanton, detector)
    elif scenario == "mixed_pure":
        reduced = MixedQuanton(rho=validate_density(quanton.rho.matrix * detector.gram.conj()))
        dq, slack = distinguishability_mixed(quanton, detector.gram), mixed_duality_slack(quanton, detector.gram)
    else:
        reduced = reduce_quanton_mixed_detector(quanton, detector)
        branches = branch_overlaps(detector)
        dq = distinguishability_mixed_detector(quanton, branches)
        bound = coherence_bound_mixed_detector(quanton, branches)
    coherence = coherence_normalized(reduced.rho)
    duality_sum = coherence + dq - 1.0
    residuals = {"duality_sum": duality_sum}
    verdicts = {"duality_sum": (abs(duality_sum) if scenario == "pure_pure" else duality_sum) <= SUM_TOL}
    if scenario == "pure_pure":
        slack = 0.0
    elif scenario == "mixed_pure":
        residuals["slack_identity"] = coherence + dq + slack - 1.0
        verdicts["slack_identity"] = abs(residuals["slack_identity"]) <= SUM_TOL
    else:
        slack = 1.0 - coherence - dq
        residuals["coherence_bound_margin"] = bound - coherence
        verdicts["coherence_bound_margin"] = residuals["coherence_bound_margin"] >= -MARGIN_TOL
    residuals["psd_margin_min"] = principal_submatrix_margin(reduced.rho)
    verdicts["psd_margin_min"] = residuals["psd_margin_min"] >= -MARGIN_TOL
    if scenario == "mixed_pure":
        verdicts["slack_nonnegative"] = slack >= -MARGIN_TOL
    return DualityReport(scenario=scenario, n=reduced.n, coherence=coherence, distinguishability=dq, slack=slack,
                         visibility=scan_visibility(reduced).visibility if include_visibility else None,
                         relation_residuals=residuals, verdicts=verdicts)


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
    """Records (trials, bytes) of every stack a campaign draws. A complex
    entry holds its two raw reals, so the assembled stack holds the bytes
    of the raw draws."""
    seen = []
    draw = duality._draw_stack

    def recording(scenario, n, dim, rank, rng, starts):
        arrays = draw(scenario, n, dim, rank, rng, starts)
        held = sum(a.nbytes for a in arrays)
        assert held == len(starts) * lab_random._trial_bytes(scenario, n, dim)
        seen.append((len(starts), held))
        return arrays

    monkeypatch.setattr(duality, "_draw_stack", recording)
    return seen


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("n", range(2, 9))
def test_kernel_matches_oracle_at_each_path_count(scenario, n):
    _assert_matches_oracle(scenario, 40, 300 + n, n)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_kernel_matches_oracle_with_interleaved_buckets(scenario, stacks):
    _assert_matches_oracle(scenario, 150, 17, tuple(range(2, 9)))
    assert len(stacks) > 7  # every path count, most split over several detector dimensions


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
    run_campaign(scenario, 4000, 5, n=n, detector_dim=dim)
    stack = stacks[0][0]
    assert 2 < stack < 4000
    for trials, expected in ((1, [1]), (stack - 1, [stack - 1]), (stack + 1, [stack, 1])):
        stacks.clear()
        _assert_matches_oracle(scenario, trials, 5, n, dim)
        assert [count for count, _ in stacks] == expected


def _nbytes(draws):
    return sum(a.nbytes for a in draws)


def _start(rng, n_choices, detector_dim):
    """A campaign trial's shape, drawn on `rng`, and the position after it."""
    return _draw_shape(rng, n_choices, detector_dim), _position(rng)


def _draw_trial(scenario, rng, n_choices, detector_dim, rank):
    """One campaign trial as a campaign draws it: its shape, then the rest
    from the position after it, as a stack of one."""
    (n, dim), position = _start(rng, n_choices, detector_dim)
    return n, dim, _draw_stack(scenario, n, dim, rank, rng, [position])


@pytest.mark.parametrize("scenario, n", [("pure_pure", 8), ("mixed_mixed", 6), ("mixed_pure", (2, 8))])
def test_stacks_hold_at_most_the_byte_budget(scenario, n, stacks):
    run_campaign(scenario, 2000, 3, n=n)
    n_choices = (n,) if isinstance(n, int) else n
    largest = max(_nbytes(_draw_trial(scenario, stream(3, k), n_choices, None, None)[2]) for k in range(2000))
    assert sum(count for count, _ in stacks) == 2000
    # a stack is drawn once its group's trials would draw the budget, so it
    # may exceed the budget by at most the trial that tipped it over
    assert STACK_BYTES <= max(held for _, held in stacks) < STACK_BYTES + largest


def test_each_group_is_evaluated_once_it_alone_reaches_the_budget(monkeypatch):
    # mixed_mixed over n = (3, 4) draws nine interleaved (n, dim) groups, and
    # at a 64 KiB budget all but one of them fill it at least once
    monkeypatch.setattr(duality, "STACK_BYTES", 1 << 16)
    seen = []
    draw = duality._draw_stack

    def recording(scenario, n, dim, rank, rng, starts):
        arrays = draw(scenario, n, dim, rank, rng, starts)
        seen.append(((n, dim), len(starts), _nbytes(arrays) // len(starts)))
        return arrays

    monkeypatch.setattr(duality, "_draw_stack", recording)
    _assert_matches_oracle("mixed_mixed", 400, 29, (3, 4))
    last = {group: i for i, (group, _, _) in enumerate(seen)}
    full = [(count, size) for i, (group, count, size) in enumerate(seen) if i != last[group]]
    assert len(last) == 9 and len(full) >= len(last)
    # every stack but a group's last was drawn by the trial that brought its
    # own group to the budget
    for count, size in full:
        assert duality.STACK_BYTES <= count * size < duality.STACK_BYTES + size


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_waiting_trials_hold_only_their_generator_positions(monkeypatch, scenario):
    # every pending entry reaches _evaluate_stack, when its group is drawn
    entries_seen = []
    evaluate = duality._evaluate_stack

    def recording(scenario, group, rank, entries, rng, tables):
        entries_seen.extend(entries)
        return evaluate(scenario, group, rank, entries, rng, tables)

    monkeypatch.setattr(duality, "_evaluate_stack", recording)
    run_campaign(scenario, 300, 41, n=tuple(range(2, 9)))
    assert sorted(trial for trial, _ in entries_seen) == list(range(300))
    # ints only, so no entry holds an ndarray or a numpy scalar: the four of
    # the generator position, in every scenario
    for trial, position in entries_seen:
        assert type(trial) is int and type(position) is tuple and len(position) == 4
        assert all(type(value) is int for value in position), trial


@pytest.mark.parametrize("scenario, rank", [("pure_pure", None), ("mixed_pure", None), ("mixed_pure", 2),
                                            ("mixed_mixed", None), ("mixed_mixed", 1)])
def test_campaign_sets_its_generator_once_per_trial(monkeypatch, scenario, rank):
    sets = []
    resume = lab_random._resume

    def counting(rng, position):
        sets.append(position)
        resume(rng, position)

    monkeypatch.setattr(lab_random, "_resume", counting)
    run_campaign(scenario, 300, 41, n=tuple(range(2, 9)), rank=rank)
    assert len(sets) == 300


def test_campaign_traced_memory_peak_stays_below_3_mb():
    run_campaign("mixed_mixed", 20, 5, n=6)  # numpy's lazy set-up is no campaign's memory
    tracemalloc.start()
    try:
        run_campaign("mixed_mixed", 1000, 5, n=6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000


def test_draw_trial_equals_the_public_generators():
    """A trial drawn as a stack of one on the campaign's draw path assembles
    to the arrays the random_* generators draw from the same stream; the
    states are compared once validated, as both paths use them."""
    for scenario in SCENARIOS:
        for k in range(12):
            n, dim, draws = _draw_trial(scenario, stream(37, k), (2, 3, 5), None, None)
            (quanton, detector), _ = _draw_report(scenario, stream(37, k), (2, 3, 5), None, None)
            arrays = [a[0] for a in draws]
            if scenario != "pure_pure":
                arrays[0] = validate_density(arrays[0]).matrix
            if scenario == "mixed_mixed":
                arrays[1] = validate_density(arrays[1]).matrix
            if scenario == "pure_pure":
                expected = [quanton.amplitudes, detector.vectors]
            elif scenario == "mixed_pure":
                expected = [quanton.rho.matrix, detector.vectors]
            else:
                expected = [quanton.rho.matrix, detector.rho_d.matrix, detector.unitaries]
            assert (n, dim) == (quanton.n, expected[-1].shape[-1])
            for got, want in zip(arrays, expected):
                np.testing.assert_array_equal(got, want)


def _campaign_bytes(*args, **kwargs):
    """A campaign's CSV and its JSON aggregate as the CLI writes them."""
    result = run_campaign(*args, **kwargs)
    buf = io.StringIO()
    result.to_csv(buf)
    return buf.getvalue(), json.dumps(result.aggregate(), indent=2) + "\n"


@pytest.mark.parametrize("scenario, n, detector_dim, rank", [
    ("pure_pure", tuple(range(2, 9)), None, None),
    ("mixed_pure", tuple(range(2, 9)), None, None),
    ("mixed_mixed", tuple(range(2, 9)), None, None),
    ("pure_pure", 5, 2, None),
    ("mixed_pure", (3, 5), 4, 2),
    ("mixed_mixed", 4, 3, 1),
    ("mixed_mixed", (2, 3), None, 2),
])
def test_campaign_bytes_do_not_depend_on_the_stack_budget(monkeypatch, scenario, n, detector_dim, rank):
    """Stacks of one, the default budget and one stack per group write the same bytes."""
    outputs = []
    for budget in (1, STACK_BYTES, 1 << 30):
        monkeypatch.setattr(duality, "STACK_BYTES", budget)
        outputs.append(_campaign_bytes(scenario, 250, 43, n=n, detector_dim=detector_dim, rank=rank))
    assert outputs[0] == outputs[1] == outputs[2]


def test_campaigns_in_threads_equal_campaigns_in_sequence():
    """Each campaign resumes its trials on its own generator, so campaigns
    running at once in threads draw what they draw one after another."""
    cases = [(scenario, seed) for scenario in ("mixed_pure", "mixed_mixed") for seed in (1, 2)]
    expected = [_campaign_bytes(scenario, 200, seed, n=tuple(range(2, 9))) for scenario, seed in cases]
    got = [None] * len(cases)

    def run(i):
        got[i] = _campaign_bytes(cases[i][0], 200, cases[i][1], n=tuple(range(2, 9)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(cases))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == expected


def _nan_in_trial(monkeypatch, scenario, seed, k, n, detector_dim=None, block=0):
    """Make the first entry of raw draw `block` of trial k of a `scenario`
    campaign on `seed` and path counts `n` a NaN, as its row is drawn: the
    row draw of trial k is the one that starts where stream(seed, k) stands
    after its shape draws and, for a mixed scenario, its quanton rank draw.
    A mixed trial's first raw draw is its quanton's Ginibre Gaussians, and a
    mixed_mixed trial's second its detector state's; the detector rank that
    _draw_row returns is passed through."""
    rng = stream(seed, k)
    (paths, _), _ = _start(rng, (n,) if isinstance(n, int) else n, detector_dim)
    if scenario != "pure_pure":
        rng.integers(1, paths, endpoint=True)
    target = _position(rng)
    draw = lab_random._draw_row

    def poisoned(scenario, rng, row):
        start = lab_random._position(rng)
        detector_rank = draw(scenario, rng, row)
        if start == target:
            row[block].flat[0] = np.nan
        return detector_rank

    monkeypatch.setattr(lab_random, "_draw_row", poisoned)


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("k", [0, 7, 40])
def test_failing_check_names_the_trial(monkeypatch, scenario, k):
    _nan_in_trial(monkeypatch, scenario, 11, k, 3, 3)
    with pytest.raises(ValueError, match=rf"^trial {k}: ") as info:
        run_campaign(scenario, 60, 11, n=3, detector_dim=3)
    # as on the per-trial path, the first check to see the NaN is a finiteness
    # check, which raises a plain ValueError, not a ValidationError subclass
    assert type(info.value) is ValueError


# the raw blocks after a trial's first: the detector vectors' Gaussians, or
# the detector state's and the path unitaries' Gaussians
@pytest.mark.parametrize("scenario, block", [("mixed_pure", 1), ("mixed_mixed", 1), ("mixed_mixed", 2)])
@pytest.mark.parametrize("k", [0, 7, 40])
def test_nan_in_any_raw_block_names_the_trial(monkeypatch, scenario, block, k):
    # the NaN spreads through the stack's assembly without a warning
    _nan_in_trial(monkeypatch, scenario, 11, k, 3, 3, block)
    with pytest.raises(ValueError, match=rf"^trial {k}: "):
        run_campaign(scenario, 60, 11, n=3, detector_dim=3)


@pytest.mark.parametrize("k", [0, 5, 19])
def test_nonfinite_slack_names_its_stack_entry(monkeypatch, stacks, k):
    # one (n, dim) group and one stack, so stack entry k is trial k
    slack = duality._slack

    def poisoned(rho, gram):
        out = slack(rho, gram)
        out[k] = np.nan
        return out

    monkeypatch.setattr(duality, "_slack", poisoned)
    with pytest.raises(ValueError, match=rf"^trial {k}: slack is not finite: nan$"):
        run_campaign("mixed_pure", 20, 8, n=3, detector_dim=3)
    assert [count for count, _ in stacks] == [20]


def test_failing_trial_exits_two_from_the_cli(monkeypatch, capsys, tmp_path):
    _nan_in_trial(monkeypatch, "mixed_pure", 2, 5, 4)
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


def _near_parallel_detector(n, dim, seed):
    """A mixed detector whose path unitaries differ by about 1e-7, so every
    branch Gram is all but the all-ones matrix and nearly singular."""
    rng = np.random.default_rng(seed)
    base = haar_unitary(dim, rng)
    nudges = [lab_random._haar(np.eye(dim) + 1e-7 * lab_random._path_gaussians(rng.standard_normal((2, dim, dim))))
              for _ in range(n)]
    return MixedDetectorInteraction(rho_d=random_density_matrix(dim, 3, rng),
                                    unitaries=np.stack([base @ u for u in nudges]))


def _rank_one_detector(n, dim, seed):
    rng = np.random.default_rng(seed)
    return MixedDetectorInteraction(rho_d=random_density_matrix(dim, 1, rng),
                                    unitaries=np.stack([haar_unitary(dim, rng) for _ in range(n)]))


def test_stacked_kernel_checks_the_grams_branch_overlaps_checks(monkeypatch):
    """On a stack of adversarial instances (an exact zero spectral weight, a
    rank-1 detector state, near-parallel branches, a quanton state with a zero
    eigenvalue) the kernel checks exactly the Grams that BranchOverlaps is
    given by branch_overlaps, bit for bit, and its reports equal the oracle's."""
    instances = [
        (random_density(3, 2, 11), _zero_weight_detector(3, 4, 12)),
        (_rank_deficient(3), _rank_one_detector(3, 4, 13)),
        (random_density(3, 3, 14), _near_parallel_detector(3, 4, 15)),
        (random_density(3, 1, 16), _rank_one_detector(3, 4, 17)),
        (_rank_deficient(3), _near_parallel_detector(3, 4, 18)),
        (random_density(3, 2, 19), random_mixed_detector(3, 4, 20)),
    ]
    seen = []
    check = duality._check_branch_grams

    def recording(grams, checked):
        seen.append(grams[checked])
        check(grams, checked)

    monkeypatch.setattr(duality, "_check_branch_grams", recording)
    rho = np.stack([quanton.rho.matrix for quanton, _ in instances])
    rho_d = np.stack([detector.rho_d.matrix for _, detector in instances])
    unitaries = np.stack([detector.unitaries for _, detector in instances])
    table = duality._mixed_mixed_stack(rho, rho_d, unitaries)
    branches = [branch_overlaps(detector) for _, detector in instances]
    assert [len(b.weights) for b in branches[:5]] == [3, 1, 3, 1, 3]
    (grams,) = seen
    assert (grams == np.concatenate([b.branch_grams for b in branches])).all()
    assert table.reports() == [_oracle_report("mixed_mixed", *instance) for instance in instances]


# finite faults, one per check, in a 3-path branch Gram
GRAM_FAULTS = {
    "is not Hermitian": lambda g: g + np.array([[0, 0.5, 0], [0, 0, 0], [0, 0, 0]]),
    "does not have unit diagonal": lambda g: g + np.diag([0.5, 0, 0]),
    "is not positive semidefinite": lambda g: np.array([[1, 0.9, 0.9], [0.9, 1, -0.9], [0.9, -0.9, 1]], dtype=complex),
}


def _poison_branch_grams(monkeypatch, poison):
    """Make the kernel's branch Grams `poison(grams, weights)`, which edits the
    (trial, branch, n, n) Grams of a stack in place, given their weights."""
    seen = {}
    branches, branch_grams = duality._branches, duality._branch_grams

    def recording(rho_d):
        seen["weights"], kets = branches(rho_d)
        return seen["weights"], kets

    def poisoned(unitaries, kets):
        grams = branch_grams(unitaries, kets)
        poison(grams, seen["weights"])
        return grams

    monkeypatch.setattr(duality, "_branches", recording)
    monkeypatch.setattr(duality, "_branch_grams", poisoned)


@pytest.mark.parametrize("fault", GRAM_FAULTS)
@pytest.mark.parametrize("k", [0, 7, 19])
def test_bad_weighted_branch_gram_names_its_trial_and_branch(monkeypatch, stacks, fault, k):
    # one (n, dim) group and one stack, so stack entry k is trial k; the last
    # weighted branch of trial k is made bad, as BranchOverlaps would see it
    expected = {}

    def poison(grams, weights):
        kept = weights[k] > 0.0
        j = int(np.flatnonzero(kept)[-1])
        grams[k, j] = GRAM_FAULTS[fault](grams[k, j])
        with pytest.raises(ValueError) as oracle:
            BranchOverlaps(weights=weights[k][kept], branch_grams=grams[k][kept])
        expected["message"] = str(oracle.value)

    _poison_branch_grams(monkeypatch, poison)
    with pytest.raises(ValueError) as info:
        run_campaign("mixed_mixed", 20, 8, n=3, detector_dim=4)
    assert [count for count, _ in stacks] == [20]
    assert str(info.value) == f"trial {k}: {expected['message']}"
    assert expected["message"].startswith("branch Gram ") and expected["message"].endswith(fault)


@pytest.mark.parametrize("fault", GRAM_FAULTS)
def test_bad_zero_weight_branch_grams_change_no_output(monkeypatch, fault):
    """branch_overlaps drops the zero-weight branches, and the kernel weighs
    them by exact zeros, so their Grams, bad or not, reach no output."""
    expected = _campaign_bytes("mixed_mixed", 40, 8, n=3, detector_dim=4)
    poisoned = []

    def poison(grams, weights):
        for index in np.argwhere(weights == 0.0):
            grams[tuple(index)] = GRAM_FAULTS[fault](grams[tuple(index)])
            poisoned.append(index)

    _poison_branch_grams(monkeypatch, poison)
    assert _campaign_bytes("mixed_mixed", 40, 8, n=3, detector_dim=4) == expected
    assert len(poisoned) > 10


@pytest.mark.parametrize("n", [2, 3, 4, 8])
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


@pytest.mark.parametrize("n, dim", [(2, 2), (3, 5), (5, 4)])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_instance_table_over_a_stack_equals_its_entries(scenario, n, dim):
    """_instance_table over the stacked arrays of several random detector sets,
    or several random_mixed_detector interactions, equals the single-instance
    tables of its entries, column by column with ==."""
    rng = np.random.default_rng([n, dim, SCENARIOS.index(scenario)])
    q = random_pure(n, rng) if scenario == "pure_pure" else random_density(n, int(rng.integers(1, n + 1)), rng)
    if scenario == "mixed_mixed":
        detectors = [random_mixed_detector(n, dim, rng) for _ in range(6)]
    else:
        detectors = [random_detectors(n, dim, rng) for _ in range(6)]
    include_v = n <= VISIBILITY_MAX_PATHS
    arrays = [duality._stack_of_one(d) for d in detectors]
    stacked = duality._instance_table(q, include_v, **{key: np.concatenate([a[key] for a in arrays])
                                                        for key in arrays[0]})
    singles = [duality._instance_table(q, include_v, **a) for a in arrays]
    assert stacked.scenario == scenario
    for part in ("values", "residuals", "verdicts"):
        columns = getattr(stacked, part)
        assert list(columns) == list(getattr(singles[0], part))
        for key, column in columns.items():
            expected = np.concatenate([getattr(single, part)[key] for single in singles])
            assert column.dtype == expected.dtype and (column == expected).all(), (part, key)


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


def test_fringe_reduces_its_state_once(monkeypatch, capsys):
    """fringe scans the reduced state that the pure_pure kernel reads."""
    traces = []
    trace = duality._partial_trace_pure

    def counting(psi):
        traces.append(psi.shape)
        return trace(psi)

    monkeypatch.setattr(duality, "_partial_trace_pure", counting)
    assert main(["fringe", "--n", "3", "--gamma", "0.5", "--grid-points", "256"]) == 0
    capsys.readouterr()
    assert traces == [(1, 3, 3)]


def test_no_command_composes_pure_pure_outside_the_kernel(monkeypatch, capsys):
    """fringe, verify, sweep and both slit checks take C and D_Q from the
    pure_pure kernel, not from the per-object quantifiers."""
    def forbidden(*args, **kwargs):
        raise AssertionError("pure_pure was composed outside its kernel")

    for module in [m for name, m in sys.modules.items() if name.startswith("duality_lab")]:
        for name in ("coherence_normalized", "distinguishability_pure"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    commands = [
        ["fringe", "--n", "2", "--gamma", "0.6"],
        ["fringe", "--n", "3", "--gamma", "0.5", "--grid-points", "256"],
        ["verify", "--scenario", "pure_pure", "--n", "3", "--gamma", "0.4"],
        ["sweep", "--n", "3", "--gammas", "0,0.5,1"],
    ]
    for argv in commands:
        assert main(argv) == 0, argv
    capsys.readouterr()
    q = PureQuanton(amplitudes=np.full(2, 2 ** -0.5, dtype=complex))
    assert duality_lab.check_two_slit_relation(q, symmetric_detectors(2, 0.6)).residual_duality <= SUM_TOL
    assert duality_lab.check_three_slit_relation(0.5).residual_duality <= SUM_TOL


def _csv_cells(report):
    """A report's CSV cells keyed by column: floats with 17 significant digits
    (they round-trip exactly), an empty cell for a visibility or residual the
    report lacks, and passed as true/false."""
    cells = {
        "scenario": report.scenario,
        "n": str(report.n),
        "coherence": f"{report.coherence:.17g}",
        "distinguishability": f"{report.distinguishability:.17g}",
        "slack": f"{report.slack:.17g}",
        "visibility": "" if report.visibility is None else f"{report.visibility:.17g}",
    }
    for key in ("duality_sum", "slack_identity", "coherence_bound_margin", "psd_margin_min"):
        value = report.relation_residuals.get(key)
        cells[key] = "" if value is None else f"{value:.17g}"
    cells["passed"] = "true" if report.passed else "false"
    return cells


def _csv_text(header, rows):
    return ",".join(header) + "\n" + "".join(",".join(row[c] for c in header) + "\n" for row in rows)


def _aggregate_oracle(result):
    """CampaignResult.aggregate, computed by walking the reports one by one."""
    abs_residuals = {}
    for r in result.reports:
        for k, v in r.relation_residuals.items():
            abs_residuals.setdefault(k, []).append(abs(v))
    violating = [i for i, r in enumerate(result.reports) if not r.passed]
    out = {
        "scenario": result.scenario,
        "trials": result.trials,
        "seed": result.seed,
        "violations": len(violating),
        "violating_trials": violating[:16],
        "max_abs_residuals": {k: max(v) for k, v in abs_residuals.items()},
        "mean_abs_residuals": {k: float(np.mean(v)) for k, v in abs_residuals.items()},
        "max_duality_sum": max(r.relation_residuals["duality_sum"] for r in result.reports),
        "min_slack": min(r.slack for r in result.reports),
        "min_psd_margin": min(r.relation_residuals["psd_margin_min"] for r in result.reports),
        "passed": not violating,
    }
    if result.scenario == "mixed_mixed":
        out["min_coherence_bound_margin"] = min(r.relation_residuals["coherence_bound_margin"] for r in result.reports)
    return out


def _violating_campaign(monkeypatch, scenario):
    """A campaign whose kernels report their coherence plus 0.5 at every odd
    stack entry, so that it holds passing and violating trials."""
    coherence = duality._coherence
    monkeypatch.setattr(duality, "_coherence", lambda rho: coherence(rho) + 0.5 * (np.arange(len(rho)) % 2))
    result = run_campaign(scenario, 60, 19, n=(2, 3, 4))
    assert 16 < len(result.violations()) < 60
    return result


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_campaign_csv_equals_the_cell_oracle(scenario, tmp_path):
    seed, n = 61, tuple(range(2, 9))
    run_campaign(scenario, 40, seed, n=n).to_csv(tmp_path / "run.csv")
    reports = [_draw_report(scenario, stream(seed, k), n, None, None)[1] for k in range(40)]
    rows = [{"trial": str(k), "seed": str(seed), **_csv_cells(report)} for k, report in enumerate(reports)]
    assert (tmp_path / "run.csv").read_bytes() == _csv_text(CSV_COLUMNS, rows).encode()


def test_violating_campaign_csv_equals_the_cell_oracle(monkeypatch, tmp_path):
    result = _violating_campaign(monkeypatch, "pure_pure")
    result.to_csv(tmp_path / "run.csv")
    text = (tmp_path / "run.csv").read_text()
    assert {row.rsplit(",", 1)[1] for row in text.splitlines()[1:]} == {"true", "false"}
    rows = [{"trial": str(k), "seed": "19", **_csv_cells(report)} for k, report in enumerate(result.reports)]
    assert text == _csv_text(CSV_COLUMNS, rows)


@pytest.mark.parametrize("argv", [
    ["--scenario", "pure_pure", "--n", "3", "--gamma", "0.4"],
    ["--scenario", "pure_pure", "--n", "5", "--seed", "12"],
    ["--scenario", "mixed_pure", "--n", "3", "--seed", "5", "--rank", "2", "--gamma", "0.3"],
    ["--scenario", "mixed_mixed", "--n", "4", "--seed", "9", "--detector-dim", "3"],
], ids=["pure_pure-no_seed", "pure_pure-seed", "mixed_pure-seed", "mixed_mixed-seed"])
def test_verify_csv_equals_the_cell_oracle(argv, capsys):
    # the JSON report round-trips every float exactly
    assert main(["verify", *argv]) == 0
    fields = json.loads(capsys.readouterr().out)
    report = DualityReport(**{key: value for key, value in fields.items() if key != "passed"})
    assert main(["verify", *argv, "--format", "csv"]) == 0
    seed = argv[argv.index("--seed") + 1] if "--seed" in argv else ""
    assert capsys.readouterr().out == _csv_text(VERIFY_CSV_COLUMNS, [{**_csv_cells(report), "seed": seed}])


@pytest.mark.parametrize("n, scenario", [pytest.param(3, None, id="3"), pytest.param(4, None, id="4"),
                                         pytest.param(3, "pure_pure", id="pure_pure-seed-3"),
                                         pytest.param(3, "mixed_pure", id="mixed_pure-3")])
def test_sweep_csv_equals_the_cell_oracle(n, scenario, capsys):
    gammas = [0.0, 0.3, 0.55, 1.0]
    mixed = scenario == "mixed_pure"
    options = [] if scenario is None else ["--scenario", scenario, "--seed", "5", *(["--rank", "2"] * mixed)]
    assert main(["sweep", "--n", str(n), "--gammas", ",".join(map(str, gammas)), *options]) == 0
    # the quanton as sweep draws it from --seed 5 (and --rank 2), or the equal superposition without one
    quanton = (_equal_pure(n) if scenario is None else random_density(n, 2, np.random.default_rng(5)) if mixed
               else random_pure(n, 5))
    reports = sweep_overlap(n, gammas, quanton)
    assert all((r.visibility is None) == (n > VISIBILITY_MAX_PATHS) for r in reports)
    assert not mixed or all(r.slack > 0.0 for r in reports[1:])
    rows = [{**_csv_cells(report), "gamma": f"{gamma:.17g}"} for gamma, report in zip(gammas, reports)]
    assert capsys.readouterr().out == _csv_text(SWEEP_CSV_COLUMNS, rows)


def _assert_aggregate_matches_oracle(result):
    expected = _aggregate_oracle(result)
    assert result.aggregate() == expected
    assert json.dumps(result.aggregate()) == json.dumps(expected)  # and with it the sign of every zero
    return expected


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_aggregate_equals_the_report_walk(scenario):
    assert _assert_aggregate_matches_oracle(run_campaign(scenario, 60, 71, n=tuple(range(2, 9))))["passed"]


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_violating_aggregate_equals_the_report_walk(monkeypatch, scenario):
    expected = _assert_aggregate_matches_oracle(_violating_campaign(monkeypatch, scenario))
    assert len(expected["violating_trials"]) == 16 < expected["violations"]


def test_campaign_builds_reports_only_when_they_are_read(monkeypatch, capsys, tmp_path):
    with monkeypatch.context() as patched:
        patched.setattr(duality, "DualityReport", lambda *args, **kwargs: pytest.fail("a report was built"))
        for scenario in SCENARIOS:
            assert main(["campaign", "--scenario", scenario, "--n", "3", "--trials", "30", "--seed", "3",
                         "--output", str(tmp_path / scenario)]) == 0
    capsys.readouterr()
    result = run_campaign("mixed_pure", 30, 3, n=3)
    assert result.reports is result.reports
    assert len(result.reports) == 30
    # results compare by identity, as their columns are arrays
    assert result == result and result != run_campaign("mixed_pure", 30, 3, n=3)


def test_verify_and_sweep_csv_build_no_reports(monkeypatch, capsys):
    """verify --format csv and sweep write their CSV from the table's columns."""
    monkeypatch.setattr(duality, "DualityReport", lambda *args, **kwargs: pytest.fail("a report was built"))
    for n in (3, 4):
        assert main(["sweep", "--n", str(n), "--gammas", "0,0.3,1"]) == 0
    for scenario in SCENARIOS:
        assert main(["verify", "--scenario", scenario, "--n", "3", "--seed", "5", "--format", "csv"]) == 0
    capsys.readouterr()


def test_sweep_builds_no_detector_set(monkeypatch, capsys):
    """A sweep factors its gammas as one stack of arrays: no DetectorSet is built."""
    monkeypatch.setattr(duality_lab.states.DetectorSet, "__post_init__",
                        lambda self: pytest.fail("a DetectorSet was built"))
    for n in (2, 3, 8):
        assert main(["sweep", "--n", str(n), "--gamma-range", "0:1:7"]) == 0
    assert main(["sweep", "--scenario", "mixed_pure", "--n", "3", "--seed", "4", "--gammas", "0,0.5,0.5,1"]) == 0
    assert len(sweep_overlap(4, [0.0, 0.2, 1.0], _equal_pure(4))) == 3
    capsys.readouterr()


@pytest.mark.parametrize("n, gamma, grid_points", [(2, 0.6, 4096), (3, 0.35, 256), (5, 0.8, 5000)])
def test_fringe_csv_equals_the_row_oracle(n, gamma, grid_points, capsys):
    """Fringe rows by the rule of the removed FringeScan.to_csv: theta and
    intensity with 17 significant digits each."""
    scan, report = duality._pure_fringe(duality._equal_amplitude_quanton(n), symmetric_detectors(n, gamma),
                                        grid_points)
    assert main(["fringe", "--n", str(n), "--gamma", repr(gamma), "--grid-points", str(grid_points)]) == 0
    comment = (f"# n={n} gamma={gamma!r} visibility={scan.visibility!r} coherence={report.coherence!r} "
               f"distinguishability={report.distinguishability!r}\n")
    rows = "".join(f"{theta:.17g},{value:.17g}\n"
                   for theta, value in zip(scan.phases.tolist(), scan.intensities.tolist()))
    assert capsys.readouterr().out == comment + "theta,intensity\n" + rows


def test_mixed_column_cells_use_17_significant_digits():
    """A float array writes each float with .17g, a missing column an empty
    cell and a bool array true/false; a constant column repeats its one
    cell, a % in it included, and an int array writes its ints."""
    buf = io.StringIO()
    duality._write_csv(buf, ("array", "flag", "absent", "constant", "count"),
                       {"array": np.array([1 / 3, np.nan, -0.0, np.inf, -np.inf, 1e300, 2.0]),
                        "flag": np.arange(7) % 2 == 0, "constant": "50%d", "count": np.arange(7) - 3})
    expected = ["array,flag,absent,constant,count", "0.33333333333333331,true,,50%d,-3", "nan,false,,50%d,-2",
                "-0,true,,50%d,-1", "inf,false,,50%d,0", "-inf,true,,50%d,1",
                "1.0000000000000001e+300,false,,50%d,2", "2,true,,50%d,3"]
    assert buf.getvalue() == "".join(line + "\n" for line in expected)


@given(st.lists(st.floats(), min_size=1, max_size=16))
def test_float_array_cells_equal_format_17g(values):
    """The row template's %.17g equals f"{x:.17g}" on any float, NaN, infinities, -0.0 and subnormals included."""
    buf = io.StringIO()
    duality._write_csv(buf, ("array",), {"array": np.array(values, dtype=float)})
    assert buf.getvalue() == "array\n" + "".join(f"{v:.17g}\n" for v in values)


class _Writes(io.StringIO):
    """A text buffer that counts its write calls."""

    calls = 0

    def write(self, text):
        self.calls += 1
        return super().write(text)


@pytest.mark.parametrize("rows", [1, 1024, 1025, 2049])
def test_csv_blocks_equal_the_per_row_oracle(rows):
    """Rows written a block at a time equal one `template % row` per row, byte
    for byte, on both sides of each block edge; each block is one write."""
    specials = [np.nan, 0.0, -0.0, np.inf, -np.inf, 1e300, -1e-300, 5e-324, 2.2250738585072014e-308 / 3]
    rng = np.random.default_rng(rows)
    floats = np.array([specials[k % len(specials)] if k % 2 else rng.normal() for k in range(rows)])
    flags, counts = rng.random(rows) < 0.5, np.arange(rows) - 7
    header = ("x", "flag", "absent", "missing", "constant", "seed", "count")
    buf = _Writes()
    duality._write_csv(buf, header, {"x": floats, "flag": flags, "absent": None, "constant": "50%d", "seed": 9,
                                     "count": counts})
    template = "%.17g,%s,,,50%%d,9,%d\n"
    expected = "".join(template % (x, "true" if flag else "false", count)
                       for x, flag, count in zip(floats.tolist(), flags.tolist(), counts.tolist()))
    assert buf.getvalue() == ",".join(header) + "\n" + expected
    assert buf.calls == 1 + -(-rows // duality.CSV_BLOCK_ROWS)


def test_campaign_csv_across_blocks_equals_the_cell_oracle(tmp_path):
    """A campaign of more than two blocks of trials writes the report fields' cells."""
    result = run_campaign("mixed_pure", 2049, 23, n=(2, 3))
    result.to_csv(tmp_path / "run.csv")
    rows = [{"trial": str(k), "seed": "23", **_csv_cells(report)} for k, report in enumerate(result.reports)]
    assert (tmp_path / "run.csv").read_bytes() == _csv_text(CSV_COLUMNS, rows).encode()
