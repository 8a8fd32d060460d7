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

import json
import sys

import numpy as np
import pytest

from duality_lab import duality
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
    """Records (trials, held bytes) of every stack the kernel evaluates."""
    seen = []
    evaluate = duality._evaluate_stack

    def recording(scenario, entries, tables):
        seen.append((len(entries), sum(duality._held_bytes(draws) for _, draws in entries)))
        return evaluate(scenario, entries, tables)

    monkeypatch.setattr(duality, "_evaluate_stack", recording)
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


def test_each_group_is_evaluated_once_it_alone_reaches_the_budget(monkeypatch):
    # mixed_mixed over n = (3, 4) draws nine interleaved (n, dim) groups, and
    # all but one of them fill the budget at least once
    seen = []
    evaluate = duality._evaluate_stack

    def recording(scenario, entries, tables):
        draws = entries[0][1]
        seen.append((tuple(a.shape for a in draws), len(entries), duality._held_bytes(draws)))
        return evaluate(scenario, entries, tables)

    monkeypatch.setattr(duality, "_evaluate_stack", recording)
    _assert_matches_oracle("mixed_mixed", 400, 29, (3, 4))
    last = {group: i for i, (group, _, _) in enumerate(seen)}
    full = [(count, size) for i, (group, count, size) in enumerate(seen) if i != last[group]]
    assert len(last) == 9 and len(full) >= len(last)
    # every stack but a group's last was evaluated by the trial that brought
    # its own group to the budget
    for count, size in full:
        assert STACK_BYTES <= count * size < STACK_BYTES + size


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


@pytest.mark.parametrize("n", [3, 4])
def test_sweep_csv_equals_the_cell_oracle(n, capsys):
    gammas = [0.0, 0.3, 0.55, 1.0]
    assert main(["sweep", "--n", str(n), "--gammas", ",".join(map(str, gammas))]) == 0
    reports = sweep_overlap(n, gammas, _equal_pure(n))
    assert all((r.visibility is None) == (n > VISIBILITY_MAX_PATHS) for r in reports)
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
