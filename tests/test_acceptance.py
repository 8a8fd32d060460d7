"""Acceptance suite: every release gate in one module.

Each test pins its tolerances explicitly and prints one PASS line when it
gets through (pytest -s or -rA shows them as a checklist).
"""

import math
import time

import numpy as np

from duality_lab.cli import main as cli_main
from duality_lab.duality import (
    check_three_slit_relation,
    check_two_slit_relation,
    evaluate_mixed,
    evaluate_mixed_detector,
    run_campaign,
    sweep_overlap,
)
from duality_lab.linalg import principal_submatrix_margin
from duality_lab.measures import (
    distinguishability_pure,
    egy_distinguishability,
    idp_limit,
)
from duality_lab.random import (
    haar_unitary,
    random_density,
    random_density_matrix,
    random_detectors,
    random_pure,
    stream,
    uniform_overlap_detectors,
)
from duality_lab.states import (
    MixedDetectorInteraction,
    PureQuanton,
    induced_detectors,
    joint_mixed,
    reduce_quanton,
    reduce_quanton_mixed_detector,
)

TRIALS = 10_000
GAMMA_GRID = [round(0.1 * k, 1) for k in range(11)]


def _report(line: str) -> None:
    print(f"[PASS] {line}")


def _equal_pure(n):
    return PureQuanton(amplitudes=np.full(n, 1.0 / math.sqrt(n), dtype=complex))


def test_criterion_01_pure_duality_equality():
    start = time.perf_counter()
    result = run_campaign("pure_pure", TRIALS, seed=101, n=range(2, 9))
    elapsed = time.perf_counter() - start
    worst = result.aggregate()["max_abs_residuals"]["duality_sum"]
    assert worst <= 1e-9
    assert result.aggregate()["violations"] == 0
    assert elapsed < 10.0
    _report(
        f"criterion 1: pure duality equality, {TRIALS} instances, "
        f"max |C + D_Q - 1| = {worst:.3e} <= 1e-9 ({elapsed:.1f} s)"
    )


def test_criterion_02_mixed_slack_identity_and_inequality():
    start = time.perf_counter()
    result = run_campaign("mixed_pure", TRIALS, seed=202, n=range(2, 9))
    elapsed = time.perf_counter() - start
    agg = result.aggregate()
    worst_identity = agg["max_abs_residuals"]["slack_identity"]
    assert worst_identity <= 1e-9
    assert agg["min_slack"] >= -1e-10
    over = sum(1 for r in result.reports if r.relation_residuals["duality_sum"] > 1e-9)
    assert over == 0
    assert elapsed < 20.0
    _report(
        f"criterion 2: mixed slack identity, {TRIALS} instances, "
        f"max residual = {worst_identity:.3e} <= 1e-9, min slack = {agg['min_slack']:.3e}, "
        f"0 sum violations ({elapsed:.1f} s)"
    )


def test_criterion_03_general_duality_and_coherence_bound():
    start = time.perf_counter()
    result = run_campaign("mixed_mixed", TRIALS, seed=303, n=range(2, 7))
    agg = result.aggregate()
    assert agg["violations"] == 0
    over = sum(1 for r in result.reports if r.relation_residuals["duality_sum"] > 1e-9)
    bound_broken = sum(
        1 for r in result.reports if r.relation_residuals["coherence_bound_margin"] < -1e-10
    )
    assert over == 0 and bound_broken == 0

    # pure detector states must agree with the pure-detector pipeline entrywise
    worst_entry = 0.0
    for k in range(200):
        rng = stream(404, k)
        n = int(rng.integers(2, 7))
        dim = int(rng.integers(n, 2 * n + 1))
        q = random_density(n, int(rng.integers(1, n + 1)), rng)
        m = MixedDetectorInteraction(
            rho_d=random_density_matrix(dim, 1, rng),
            unitaries=np.stack([haar_unitary(dim, rng) for _ in range(n)]),
        )
        general = reduce_quanton_mixed_detector(q, m)
        d = induced_detectors(m)
        special = evaluate_mixed(q, d)
        closed = q.rho.matrix * d.gram.conj()
        worst_entry = max(worst_entry, float(np.max(np.abs(general.rho.matrix - closed))))
        full = evaluate_mixed_detector(q, m)
        assert abs(full.coherence - special.coherence) <= 1e-10
        assert abs(full.distinguishability - special.distinguishability) <= 1e-10
    assert worst_entry <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(
        f"criterion 3: general duality, {TRIALS} instances, 0 violations at 1e-9; "
        f"pure-detector agreement {worst_entry:.3e} <= 1e-10 ({elapsed:.1f} s)"
    )


def test_criterion_04_two_slit_correspondence():
    q = _equal_pure(2)
    for gamma in GAMMA_GRID:
        d = uniform_overlap_detectors(2, gamma, 2, seed=1040)
        report = check_two_slit_relation(q, d)
        assert abs(report.visibility - gamma) <= 1e-8
        assert abs(report.visibility + report.distinguishability - 1.0) <= 1e-8
        mapped = egy_distinguishability(report.distinguishability)
        assert abs(report.visibility ** 2 + mapped ** 2 - 1.0) <= 1e-8
    _report(
        "criterion 4: two-slit correspondence, gamma in {0, 0.1, ..., 1}: "
        "V = gamma, V + D_Q = 1, V^2 + D^2 = 1, all within 1e-8"
    )


def test_criterion_05_three_slit_correspondence():
    for gamma in GAMMA_GRID:
        report = check_three_slit_relation(gamma)
        assert report.residual_coherence_visibility <= 1e-8
        assert report.residual_duality <= 1e-8
        assert abs(report.visibility - 3 * gamma / (2 + gamma)) <= 1e-8
    _report(
        "criterion 5: three-slit correspondence, gamma in {0, 0.1, ..., 1}: "
        "C = 2V/(3-V), D_Q + 2V/(3-V) = 1, V = 3g/(2+g), all within 1e-8"
    )


def test_criterion_06_idp_limit():
    q = _equal_pure(2)
    worst = 0.0
    for k in range(1000):
        rng = stream(606, k)
        dim = int(rng.integers(2, 5))
        d = random_detectors(2, dim, rng)
        overlap = abs(d.gram[0, 1])
        got = distinguishability_pure(q, d)
        worst = max(worst, abs(got - idp_limit(overlap)))
    assert worst <= 1e-15
    _report(f"criterion 6: IDP limit, 1000 detector pairs, worst deviation {worst:.2e} <= 1e-15")


def test_criterion_07_principal_submatrix_inequality():
    worst = np.inf
    for k in range(TRIALS):
        rng = stream(707, k)
        n = int(rng.integers(2, 9))
        dm = random_density_matrix(n, int(rng.integers(1, n + 1)), rng)
        worst = min(worst, principal_submatrix_margin(dm.matrix))
    assert worst >= -1e-10
    _report(
        f"criterion 7: principal 2x2 submatrix inequality, {TRIALS} matrices, "
        f"min margin {worst:.3e} >= -1e-10"
    )


def test_criterion_08_partial_trace_oracle():
    worst_brute = 0.0
    worst_closed = 0.0
    for k in range(1000):
        rng = stream(808, k)
        n = int(rng.integers(2, 5))
        dim = int(rng.integers(n, n + 3))
        q = random_density(n, int(rng.integers(1, n + 1)), rng)
        d = random_detectors(n, dim, rng)
        joint = joint_mixed(q, d)
        reduced = reduce_quanton(joint, n, dim).rho.matrix
        brute = np.zeros((n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                for a in range(dim):
                    brute[i, j] += joint[i * dim + a, j * dim + a]
        closed = q.rho.matrix * d.gram.conj()
        worst_brute = max(worst_brute, float(np.max(np.abs(reduced - brute))))
        worst_closed = max(worst_closed, float(np.max(np.abs(reduced - closed))))
    assert worst_brute <= 1e-12
    assert worst_closed <= 1e-10
    _report(
        f"criterion 8: partial-trace oracle, 1000 joints, brute-force gap "
        f"{worst_brute:.3e} <= 1e-12, closed-form gap {worst_closed:.3e} <= 1e-10"
    )


def test_criterion_09_complementary_monotonicity():
    for n in (2, 3, 4):
        for label, quanton in (
            ("pure", random_pure(n, 909 + n)),
            ("rank-2 mixed", random_density(n, 2, 919 + n)),
        ):
            reports = sweep_overlap(n, GAMMA_GRID, quanton)
            cs = [r.coherence for r in reports]
            ds = [r.distinguishability for r in reports]
            assert all(b >= a - 1e-12 for a, b in zip(cs, cs[1:])), (n, label)
            assert all(b <= a + 1e-12 for a, b in zip(ds, ds[1:])), (n, label)
    _report(
        "criterion 9: complementary monotonicity on 11-point sweeps, n in {2, 3, 4}, "
        "pure and rank-2 mixed quantons"
    )


def test_criterion_10_campaign_reproducibility(tmp_path):
    for scenario, n in (("pure_pure", 3), ("mixed_pure", 4), ("mixed_mixed", 3)):
        argv = ["campaign", "--scenario", scenario, "--n", str(n), "--trials", "60", "--seed", "4242"]
        assert cli_main(argv + ["--output", str(tmp_path / f"{scenario}_a")]) == 0
        assert cli_main(argv + ["--output", str(tmp_path / f"{scenario}_b")]) == 0
        a = (tmp_path / f"{scenario}_a.csv").read_bytes()
        b = (tmp_path / f"{scenario}_b.csv").read_bytes()
        assert a == b, scenario
    _report("criterion 10: campaign CSVs are byte-identical under a fixed seed, all scenarios")
