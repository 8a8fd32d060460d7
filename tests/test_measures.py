import math
import re

import numpy as np
import pytest

from duality_lab.linalg import NotHermitianError, NotPSDError, validate_density
from duality_lab.measures import (
    _clamp_unit,
    coherence_bound_mixed_detector,
    coherence_l1,
    coherence_normalized,
    distinguishability_mixed,
    distinguishability_mixed_detector,
    distinguishability_pure,
    egy_distinguishability,
    idp_limit,
    mixed_duality_slack,
    uqsd_bound,
)
from duality_lab.random import (
    haar_unitary,
    random_density,
    random_density_matrix,
    random_detectors,
    random_pure,
    uniform_overlap_detectors,
)
from duality_lab.states import (
    BranchOverlaps,
    DetectorSet,
    MixedDetectorInteraction,
    PureQuanton,
    branch_overlaps,
    reduce_quanton_mixed_detector,
)


def _maximally_coherent(n):
    return validate_density(np.full((n, n), 1.0 / n, dtype=complex))


def _uniform_gram(n, gamma):
    return (1.0 - gamma) * np.eye(n) + gamma * np.ones((n, n))


# --------------------------------------------------------------- coherence

def test_coherence_l1_maximally_coherent():
    assert abs(coherence_l1(_maximally_coherent(3)) - 2.0) <= 1e-12


def test_coherence_l1_diagonal_is_zero():
    assert coherence_l1(validate_density(np.diag([0.2, 0.3, 0.5]))) == 0.0


def test_coherence_l1_hand_value():
    assert abs(coherence_l1(np.array([[0.5, 0.3], [0.3, 0.5]])) - 0.6) <= 1e-14


def test_coherence_normalized_maximally_coherent():
    for n in range(2, 7):
        assert abs(coherence_normalized(_maximally_coherent(n)) - 1.0) <= 1e-12


def test_coherence_normalized_symmetric_three_path():
    # equal amplitudes, uniform overlap 0.5: reduced entries are 0.5/3 off-diagonal
    reduced = validate_density(_uniform_gram(3, 0.5) / 3.0)
    assert abs(coherence_normalized(reduced) - 0.5) <= 1e-12


def test_coherence_normalized_in_unit_interval_on_ginibre():
    rng = np.random.default_rng(41)
    for _ in range(10_000):
        n = int(rng.integers(2, 9))
        dm = random_density_matrix(n, int(rng.integers(1, n + 1)), rng)
        c = coherence_normalized(dm)
        assert 0.0 <= c <= 1.0


def test_coherence_normalized_needs_two_dims():
    with pytest.raises(ValueError, match=">= 2"):
        coherence_normalized(np.array([[1.0]]))


# --------------------------------------------------------------- uqsd_bound

def test_uqsd_orthogonal_states():
    assert uqsd_bound([0.3, 0.2, 0.5], np.eye(3)) == 1.0


def test_uqsd_two_state_equals_idp():
    assert abs(uqsd_bound([0.5, 0.5], _uniform_gram(2, 0.6)) - 0.4) <= 1e-14


def test_uqsd_three_state_uniform():
    assert abs(uqsd_bound([1 / 3] * 3, _uniform_gram(3, 0.5)) - 0.5) <= 1e-14


def test_uqsd_rejects_negative_probability():
    with pytest.raises(ValueError, match="negative"):
        uqsd_bound([-0.1, 1.1], np.eye(2))


def test_uqsd_rejects_bad_sum():
    with pytest.raises(ValueError, match="sum"):
        uqsd_bound([0.5, 0.6], np.eye(2))


def test_uqsd_rejects_unnormalized_gram():
    with pytest.raises(ValueError, match="unit diagonal"):
        uqsd_bound([0.5, 0.5], np.diag([1.0, 0.5]))


# Grams given from outside, each failing one of the checks the public measures
# make where a Gram enters: the exception class and message of each
BAD_GRAMS = {
    "not-hermitian": (np.array([[1, 0.9, 0], [0, 1, 0], [0, 0, 1]], dtype=complex), NotHermitianError,
                      "Gram Hermiticity deviation 9.000e-01 over 1.0e-10"),
    "not-psd": (np.array([[1, 0.9, 0.9], [0.9, 1, -0.9], [0.9, -0.9, 1]], dtype=complex), NotPSDError,
                "Gram minimum eigenvalue -8.000e-01 below -1.0e-10"),
    "not-unit-diagonal": (np.diag([2.0, 1.0, 1.0]), ValueError,
                          "Gram matrix must have unit diagonal (normalized states)"),
}


@pytest.mark.parametrize("bad", BAD_GRAMS)
@pytest.mark.parametrize("measure", [
    lambda q, gram: uqsd_bound(q.path_probabilities(), gram), distinguishability_mixed, mixed_duality_slack,
], ids=["uqsd_bound", "distinguishability_mixed", "mixed_duality_slack"])
def test_public_measures_reject_bad_grams(measure, bad):
    gram, error, message = BAD_GRAMS[bad]
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        measure(random_density(3, 2, 4), gram)
    assert type(info.value) is error


def test_public_measures_accept_the_gram_of_any_detector_set():
    """DetectorSet accepts norms within 1e-10, so its Gram's diagonal may be
    off by about 2e-10; the measures hold the diagonal to 1e-8 and accept it."""
    vectors = random_detectors(3, 4, 5).vectors * np.array([[1 + 0.9e-10], [1 - 0.9e-10], [1.0]])
    d = DetectorSet(vectors)
    assert np.abs(d.gram.diagonal() - 1.0).max() > 1.5e-10
    q = random_density(3, 2, 4)
    assert 0.0 <= distinguishability_pure(random_pure(3, 6), d) <= 1.0
    assert 0.0 <= distinguishability_mixed(q, d.gram) <= 1.0
    assert mixed_duality_slack(q, d.gram) >= -1e-12


def test_uqsd_monotone_in_overlap():
    probs = [0.2, 0.3, 0.5]
    values = [uqsd_bound(probs, _uniform_gram(3, g)) for g in np.linspace(0, 1, 11)]
    assert all(a >= b - 1e-14 for a, b in zip(values, values[1:]))


# ---------------------------------------------------- distinguishability

def test_distinguishability_pure_orthogonal():
    q = random_pure(3, 42)
    ortho = DetectorSet(np.eye(3, dtype=complex))
    assert distinguishability_pure(q, ortho) == 1.0


def test_distinguishability_pure_identical_detectors():
    q = PureQuanton(amplitudes=np.array([1.0, 1.0]) / np.sqrt(2))
    d = uniform_overlap_detectors(2, 1.0, 2, 0)
    assert abs(distinguishability_pure(q, d)) <= 1e-12


def test_distinguishability_pure_two_path_hand_value():
    q = PureQuanton(amplitudes=np.array([1.0, 1.0]) / np.sqrt(2))
    d = uniform_overlap_detectors(2, 0.6, 2, 0)
    assert abs(distinguishability_pure(q, d) - 0.4) <= 1e-12


def test_distinguishability_pure_mismatch():
    q = PureQuanton(amplitudes=np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="mismatch"):
        distinguishability_pure(q, random_detectors(3, 3, 0))


def test_distinguishability_mixed_consistent_with_pure():
    rng = np.random.default_rng(43)
    q = random_pure(4, rng)
    d = random_detectors(4, 5, rng)
    dm = distinguishability_mixed(q.to_mixed(), d.gram)
    dp = distinguishability_pure(q, d)
    assert abs(dm - dp) <= 1e-12


def test_distinguishability_mixed_identity_gram():
    q = random_density(4, 2, 44)
    assert distinguishability_mixed(q, np.eye(4)) == 1.0


def test_distinguishability_mixed_against_loop_oracle():
    rng = np.random.default_rng(45)
    q = random_density(4, 3, rng)
    d = random_detectors(4, 6, rng)
    rho = q.rho.matrix
    n = 4
    acc = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                acc += math.sqrt(rho[i, i].real * rho[j, j].real) * abs(d.gram[i, j])
    expect = 1.0 - acc / (n - 1)
    assert abs(distinguishability_mixed(q, d.gram) - expect) <= 1e-12


def _two_branch_overlaps(n, weights, gammas):
    grams = np.stack([_uniform_gram(n, g).astype(complex) for g in gammas])
    return BranchOverlaps(weights=np.array(weights), branch_grams=grams)


def test_distinguishability_mixed_detector_single_branch():
    rng = np.random.default_rng(46)
    q = random_density(3, 2, rng)
    gram = _uniform_gram(3, 0.4)
    b = BranchOverlaps(weights=np.array([1.0]), branch_grams=gram[None, :, :].astype(complex))
    assert abs(distinguishability_mixed_detector(q, b) - distinguishability_mixed(q, gram)) <= 1e-14


def test_distinguishability_mixed_detector_identity_grams():
    q = random_density(3, 2, 47)
    b = _two_branch_overlaps(3, [0.7, 0.3], [0.0, 0.0])
    assert distinguishability_mixed_detector(q, b) == 1.0


def test_distinguishability_mixed_detector_weighted_oracle():
    q = random_density(3, 2, 48)
    b = _two_branch_overlaps(3, [0.7, 0.3], [0.2, 0.8])
    p = q.path_probabilities()
    cross = sum(
        math.sqrt(p[i] * p[j]) for i in range(3) for j in range(3) if i != j
    )
    expect = 1.0 - (0.7 * 0.2 + 0.3 * 0.8) * cross / 2.0
    assert abs(distinguishability_mixed_detector(q, b) - expect) <= 1e-12


# -------------------------------------------------- mixed-detector coherence

def test_coherence_bound_single_branch_is_tight():
    rng = np.random.default_rng(49)
    q = random_density(3, 2, rng)
    dim = 4
    m = MixedDetectorInteraction(
        rho_d=random_density_matrix(dim, 1, rng),
        unitaries=np.stack([haar_unitary(dim, rng) for _ in range(3)]),
    )
    b = branch_overlaps(m)
    reduced = reduce_quanton_mixed_detector(q, m)
    bound = coherence_bound_mixed_detector(q, b)
    assert abs(bound - coherence_normalized(reduced.rho)) <= 1e-10


def test_coherence_bound_identity_grams():
    q = random_density(3, 2, 50)
    b = _two_branch_overlaps(3, [0.6, 0.4], [0.0, 0.0])
    assert coherence_bound_mixed_detector(q, b) == 0.0


def test_coherence_bound_dominates_actual_coherence():
    rng = np.random.default_rng(51)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        dim = int(rng.integers(n, 2 * n + 1))
        q = random_density(n, int(rng.integers(1, n + 1)), rng)
        m = MixedDetectorInteraction(
            rho_d=random_density_matrix(dim, 2, rng),
            unitaries=np.stack([haar_unitary(dim, rng) for _ in range(n)]),
        )
        b = branch_overlaps(m)
        actual = coherence_normalized(reduce_quanton_mixed_detector(q, m).rho)
        assert coherence_bound_mixed_detector(q, b) >= actual - 1e-10


# ------------------------------------------------------------ small formulas

def test_idp_limit_values():
    assert idp_limit(0.0) == 1.0
    assert idp_limit(1.0) == 0.0
    assert abs(idp_limit(0.6) - 0.4) <= 1e-15


def test_idp_limit_rejects_out_of_range():
    with pytest.raises(ValueError, match="overlap"):
        idp_limit(1.2)


def test_egy_distinguishability_endpoints():
    assert egy_distinguishability(0.0) == 0.0
    assert egy_distinguishability(1.0) == 1.0


def test_egy_distinguishability_saturates_quadratic_duality():
    d = egy_distinguishability(0.4)
    assert abs(d - 0.8) <= 1e-15
    v = 0.6  # the coherence/visibility partner of dq = 0.4
    assert abs(v * v + d * d - 1.0) <= 1e-15


def test_egy_distinguishability_rejects_out_of_range():
    with pytest.raises(ValueError, match="distinguishability"):
        egy_distinguishability(-0.1)


def test_mixed_duality_slack_zero_for_pure():
    rng = np.random.default_rng(52)
    q = random_pure(3, rng).to_mixed()
    d = random_detectors(3, 3, rng)
    assert abs(mixed_duality_slack(q, d.gram)) <= 1e-12


def test_mixed_duality_slack_nonnegative():
    rng = np.random.default_rng(53)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        q = random_density(n, int(rng.integers(1, n + 1)), rng)
        d = random_detectors(n, n, rng)
        assert mixed_duality_slack(q, d.gram) >= -1e-12


@pytest.mark.parametrize("call, message", [
    (lambda: uqsd_bound([1.0], np.eye(1)), "need at least two probabilities"),
    (lambda: uqsd_bound([0.5, 0.5], np.eye(3)), "Gram shape (3, 3) does not match 2 probabilities"),
    *((lambda measure=measure: measure(random_density(2, 1, 0), _two_branch_overlaps(3, [0.5, 0.5], [0.0, 0.5])),
       "branch Gram size 3 does not match 2 paths")
      for measure in (distinguishability_mixed_detector, coherence_bound_mixed_detector)),
    (lambda: mixed_duality_slack(random_density(2, 1, 0), np.eye(3)), "Gram shape (3, 3) does not match 2 paths"),
], ids=["uqsd-one-probability", "uqsd-gram-shape", "mixed-detector-distinguishability", "mixed-detector-coherence",
        "slack-gram-shape"])
def test_mismatched_shapes_raise(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_unit_interval_validation():
    assert _clamp_unit(0.5, "distinguishability") == 0.5
    assert uqsd_bound([0.5, 0.5], np.eye(2)) == 1.0
    with pytest.raises(ValueError, match="leaves"):
        _clamp_unit(1.5, "distinguishability")
    with pytest.raises(ValueError, match="nan"):
        _clamp_unit(float("nan"), "distinguishability")
    with pytest.raises(ValueError, match="finite"):
        uqsd_bound([float("nan"), float("nan")], np.eye(2))
