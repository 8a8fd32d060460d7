import re

import numpy as np
import pytest

from duality_lab.duality import evaluate_mixed_detector
from duality_lab.linalg import validate_density
from duality_lab.random import haar_unitary, random_density, random_density_matrix, random_detectors, random_pure
from duality_lab.states import (
    BranchOverlaps,
    DetectorSet,
    MixedDetectorInteraction,
    MixedQuanton,
    PureQuanton,
    branch_overlaps,
    entangle_pure,
    induced_detectors,
    joint_mixed,
    reduce_quanton,
    reduce_quanton_mixed_detector,
)

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _orthonormal_detectors(n):
    return DetectorSet(np.eye(n, dtype=complex))


def _identical_detectors(n, dim=2):
    v = np.zeros(dim, dtype=complex)
    v[0] = 1.0
    return DetectorSet(np.tile(v, (n, 1)))


# ----------------------------------------------------------------- types

def test_pure_quanton_rejects_unnormalized():
    with pytest.raises(ValueError, match="not normalized"):
        PureQuanton(amplitudes=np.array([1.0, 1.0]))


def test_pure_quanton_needs_two_paths():
    with pytest.raises(ValueError, match="at least 2"):
        PureQuanton(amplitudes=np.array([1.0]))


@pytest.mark.parametrize("build, message", [
    (lambda: PureQuanton(amplitudes=np.eye(2)), "expected a 1-D vector, got shape (2, 2)"),
    (lambda: PureQuanton(amplitudes=np.array([np.nan, 1.0])), "vector contains NaN or Inf entries"),
    (lambda: MixedQuanton(rho=validate_density(np.eye(1))), "a quanton needs at least 2 paths"),
    (lambda: DetectorSet(np.ones(3)), "vectors must be an (n, dim) array"),
    (lambda: MixedDetectorInteraction(rho_d=validate_density(np.eye(2) / 2), unitaries=np.eye(2)),
     "unitaries must be an (n, dim, dim) array"),
    (lambda: BranchOverlaps(weights=np.array([1.0]), branch_grams=np.stack([np.eye(2)] * 2)),
     "weights and branch_grams shapes are inconsistent"),
    (lambda: BranchOverlaps(weights=np.array([1.0]), branch_grams=np.ones((1, 2, 3))),
     "branch Gram matrices must be square"),
], ids=["amplitudes-not-1d", "amplitudes-nan", "one-path-rho", "vectors-not-2d", "unitaries-not-3d",
        "branch-weights-mismatch", "branch-grams-not-square"])
def test_malformed_state_objects_raise(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_detector_set_rejects_unnormalized():
    with pytest.raises(ValueError, match="not normalized"):
        DetectorSet(np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_detector_set_derives_gram():
    v = random_detectors(3, 4, 7).vectors
    d = DetectorSet(v)
    assert np.array_equal(d.gram, v.conj() @ v.T)
    assert not d.gram.flags.writeable
    with pytest.raises(TypeError):
        DetectorSet(vectors=v, gram=np.ones((3, 3), dtype=complex))


def test_interaction_rejects_non_unitary():
    rho_d = validate_density(np.eye(2) / 2)
    with pytest.raises(ValueError, match="not unitary"):
        MixedDetectorInteraction(rho_d=rho_d, unitaries=np.stack([np.eye(2), 0.5 * np.eye(2)]))
    # the first failing index is named
    with pytest.raises(ValueError, match="U_1 is not unitary"):
        MixedDetectorInteraction(rho_d=rho_d, unitaries=np.stack([np.eye(2), 0.5 * np.eye(2), 2 * np.eye(2)]))
    with pytest.raises(ValueError, match="U_1 is not unitary"):
        MixedDetectorInteraction(rho_d=rho_d, unitaries=np.stack([np.eye(2), np.full((2, 2), np.nan)]))


def _nearly_unitary(dim, error):
    """(I + E)^(1/2) for E with every off-diagonal entry `error`: U^dag U - I is
    E to rounding, each entry within `error`, each row summing to (dim - 1) error."""
    vals, vecs = np.linalg.eigh(np.eye(dim) + error * (np.ones((dim, dim)) - np.eye(dim)))
    return (vecs * np.sqrt(vals)) @ vecs.T


def test_interaction_bounds_the_unitarity_error_a_branch_gram_sees():
    """A branch Gram's diagonal moves by <d|U^dag U - I|d>, which for
    d = (1, 1, 1, 1)/2 is the row sum 3 error, three times any entry. The
    constructor bounds the row sums, so an interaction it accepts evaluates."""
    rho_d = validate_density(np.full((4, 4), 0.25))
    u = _nearly_unitary(4, 0.9e-10)
    with pytest.raises(ValueError, match=r"^U_0 is not unitary, deviation 2\.700e-10$"):
        MixedDetectorInteraction(rho_d=rho_d, unitaries=np.stack([u, u]))
    u = _nearly_unitary(4, 0.3e-10)
    m = MixedDetectorInteraction(rho_d=rho_d, unitaries=np.stack([u, u]))
    assert abs(branch_overlaps(m).branch_grams[0, 0, 0] - 1.0) > 0.8e-10
    assert evaluate_mixed_detector(random_density(2, 2, 5), m).passed


def test_interaction_rejects_dimension_mismatch():
    rho_d = validate_density(np.eye(3) / 3)
    with pytest.raises(ValueError, match="does not match"):
        MixedDetectorInteraction(rho_d=rho_d, unitaries=np.stack([np.eye(2), np.eye(2)]))


# ---------------------------------------------------------- entangle_pure

def test_entangle_orthonormal_is_maximally_entangled():
    q = PureQuanton(amplitudes=np.array([1.0, 1.0]) / np.sqrt(2))
    psi = entangle_pure(q, _orthonormal_detectors(2))
    np.testing.assert_allclose(psi, np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2), atol=1e-15)


def test_entangle_identical_detectors_factorizes():
    q = PureQuanton(amplitudes=np.array([0.6, 0.8]))
    d = _identical_detectors(2, dim=3)
    psi = entangle_pure(q, d)
    product = np.kron(q.amplitudes, d.vectors[0])
    np.testing.assert_allclose(psi, product, atol=1e-15)


def test_entangle_output_normalized():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        dim = int(rng.integers(n, 2 * n + 1))
        psi = entangle_pure(random_pure(n, rng), random_detectors(n, dim, rng))
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12


def test_entangle_path_count_mismatch():
    q = PureQuanton(amplitudes=np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="mismatch"):
        entangle_pure(q, _orthonormal_detectors(3))


# ------------------------------------------------------------- joint_mixed

def test_joint_mixed_path_count_mismatch():
    with pytest.raises(ValueError, match="^path count mismatch: quanton has 2, detectors have 3$"):
        joint_mixed(random_density(2, 1, 0), _orthonormal_detectors(3))


def test_joint_mixed_consistent_with_pure():
    rng = np.random.default_rng(22)
    q = random_pure(3, rng)
    d = random_detectors(3, 4, rng)
    psi = entangle_pure(q, d)
    joint = joint_mixed(q.to_mixed(), d)
    np.testing.assert_allclose(joint, np.outer(psi, psi.conj()), atol=1e-12)


def test_joint_mixed_diagonal_is_separable_mixture():
    probs = np.array([0.25, 0.75])
    q = MixedQuanton(rho=validate_density(np.diag(probs)))
    d = random_detectors(2, 3, 5)
    joint = joint_mixed(q, d)
    expect = np.zeros((6, 6), dtype=complex)
    for i, p in enumerate(probs):
        proj = np.outer(d.vectors[i], d.vectors[i].conj())
        expect[i * 3:(i + 1) * 3, i * 3:(i + 1) * 3] = p * proj
    np.testing.assert_allclose(joint, expect, atol=1e-14)


def test_joint_mixed_is_valid_density():
    rng = np.random.default_rng(23)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        q = random_density(n, int(rng.integers(1, n + 1)), rng)
        d = random_detectors(n, int(rng.integers(n, 2 * n + 1)), rng)
        validate_density(joint_mixed(q, d))


# ---------------------------------------------------------- reduce_quanton

def test_reduce_orthogonal_detectors_kills_coherence():
    rng = np.random.default_rng(24)
    q = random_density(3, 2, rng)
    d = _orthonormal_detectors(3)
    reduced = reduce_quanton(joint_mixed(q, d), 3, 3)
    np.testing.assert_allclose(reduced.rho.matrix, np.diag(q.path_probabilities()), atol=1e-12)


def test_reduce_identical_detectors_changes_nothing():
    rng = np.random.default_rng(25)
    q = random_density(3, 3, rng)
    d = _identical_detectors(3)
    reduced = reduce_quanton(joint_mixed(q, d), 3, 2)
    np.testing.assert_allclose(reduced.rho.matrix, q.rho.matrix, atol=1e-12)


def test_reduce_matches_gram_closed_form():
    rng = np.random.default_rng(26)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        dim = int(rng.integers(n, 2 * n + 1))
        q = random_density(n, int(rng.integers(1, n + 1)), rng)
        d = random_detectors(n, dim, rng)
        reduced = reduce_quanton(joint_mixed(q, d), n, dim)
        closed = q.rho.matrix * d.gram.conj()
        assert np.max(np.abs(reduced.rho.matrix - closed)) <= 1e-10


def test_reduce_preserves_path_probabilities():
    rng = np.random.default_rng(27)
    q = random_density(4, 2, rng)
    d = random_detectors(4, 5, rng)
    reduced = reduce_quanton(joint_mixed(q, d), 4, 5)
    np.testing.assert_allclose(reduced.path_probabilities(), q.path_probabilities(), atol=1e-12)


def test_reduce_dimension_mismatch():
    with pytest.raises(ValueError, match="does not match"):
        reduce_quanton(np.eye(6) / 6, 2, 2)


# ------------------------------------------- reduce_quanton_mixed_detector

def test_mixed_detector_equal_unitaries_change_nothing():
    rng = np.random.default_rng(28)
    q = random_density(3, 2, rng)
    u = haar_unitary(4, rng)
    m = MixedDetectorInteraction(
        rho_d=random_density_matrix(4, 2, rng), unitaries=np.stack([u, u, u])
    )
    reduced = reduce_quanton_mixed_detector(q, m)
    np.testing.assert_allclose(reduced.rho.matrix, q.rho.matrix, atol=1e-12)


def test_mixed_detector_swap_decoheres_two_paths():
    # Tr(rho_d U_2^dag) = Tr(I/2 @ swap) = 0, so the off-diagonal dies
    q = random_density(2, 2, 29)
    m = MixedDetectorInteraction(
        rho_d=validate_density(np.eye(2) / 2), unitaries=np.stack([np.eye(2, dtype=complex), SWAP])
    )
    reduced = reduce_quanton_mixed_detector(q, m)
    np.testing.assert_allclose(reduced.rho.matrix, np.diag(q.path_probabilities()), atol=1e-14)


def test_mixed_detector_pure_state_matches_pure_pipeline():
    rng = np.random.default_rng(30)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        dim = int(rng.integers(n, 2 * n + 1))
        q = random_density(n, int(rng.integers(1, n + 1)), rng)
        m = MixedDetectorInteraction(
            rho_d=random_density_matrix(dim, 1, rng),
            unitaries=np.stack([haar_unitary(dim, rng) for _ in range(n)]),
        )
        via_trace = reduce_quanton_mixed_detector(q, m)
        d = induced_detectors(m)
        closed = q.rho.matrix * d.gram.conj()
        assert np.max(np.abs(via_trace.rho.matrix - closed)) <= 1e-10


def test_mixed_detector_path_count_mismatch():
    q = random_density(3, 1, 31)
    m = MixedDetectorInteraction(
        rho_d=validate_density(np.eye(2) / 2), unitaries=np.stack([np.eye(2), np.eye(2)])
    )
    with pytest.raises(ValueError, match="mismatch"):
        reduce_quanton_mixed_detector(q, m)


# ---------------------------------------------------------- branch_overlaps

def test_branch_overlaps_pure_detector_single_branch():
    rng = np.random.default_rng(32)
    m = MixedDetectorInteraction(
        rho_d=random_density_matrix(3, 1, rng),
        unitaries=np.stack([haar_unitary(3, rng) for _ in range(2)]),
    )
    b = branch_overlaps(m)
    assert b.weights.shape == (1,)
    np.testing.assert_allclose(b.weights, [1.0], atol=1e-12)


def test_branch_overlaps_sign_flip_example():
    # U_1 = I, U_2 = diag(1, -1), rho_d = I/2: per-branch overlap is +1 or -1
    m = MixedDetectorInteraction(
        rho_d=validate_density(np.eye(2) / 2),
        unitaries=np.stack([np.eye(2, dtype=complex), np.diag([1.0, -1.0]).astype(complex)]),
    )
    b = branch_overlaps(m)
    offs = sorted(float(g[0, 1].real) for g in b.branch_grams)
    np.testing.assert_allclose(offs, [-1.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(np.abs(b.branch_grams[:, 0, 1]), [1.0, 1.0], atol=1e-14)


def test_branch_overlaps_weights_sum_to_one():
    rng = np.random.default_rng(33)
    for _ in range(20):
        dim = int(rng.integers(2, 6))
        m = MixedDetectorInteraction(
            rho_d=random_density_matrix(dim, int(rng.integers(1, dim + 1)), rng),
            unitaries=np.stack([haar_unitary(dim, rng) for _ in range(3)]),
        )
        b = branch_overlaps(m)
        assert abs(b.weights.sum() - 1.0) <= 1e-10
        for gram in b.branch_grams:
            np.testing.assert_allclose(np.diag(gram).real, np.ones(3), atol=1e-12)
            assert np.min(np.linalg.eigvalsh((gram + gram.conj().T) / 2)) >= -1e-12


def test_branch_overlaps_type_rejects_bad_gram():
    from duality_lab.states import BranchOverlaps

    bad = np.stack([np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex)])
    with pytest.raises(ValueError, match="positive semidefinite"):
        BranchOverlaps(weights=np.array([1.0]), branch_grams=bad)
    off_diag = np.stack([np.diag([1.0, 0.5]).astype(complex)])
    with pytest.raises(ValueError, match="unit diagonal"):
        BranchOverlaps(weights=np.array([1.0]), branch_grams=off_diag)
    good = np.eye(2, dtype=complex)
    skew = np.array([[1.0, 0.5j], [0.5j, 1.0]])
    with pytest.raises(ValueError, match="branch Gram 1 is not Hermitian"):
        BranchOverlaps(weights=np.array([0.5, 0.5]), branch_grams=np.stack([good, skew]))
    with pytest.raises(ValueError, match="branch Gram 0 is not positive semidefinite"):
        BranchOverlaps(weights=np.array([0.5, 0.5]), branch_grams=np.stack([bad[0], skew]))
    nan_off = np.array([[1.0, np.nan], [np.nan, 1.0]], dtype=complex)
    with pytest.raises(ValueError, match="not Hermitian"):
        BranchOverlaps(weights=np.array([1.0]), branch_grams=np.stack([nan_off]))
    with pytest.raises(ValueError, match="nonnegative"):
        BranchOverlaps(weights=np.array([np.nan]), branch_grams=np.stack([good]))


@pytest.mark.parametrize("j", [0, 1])
def test_branch_overlaps_names_the_gram_holding_nan(j):
    """A NaN fails the Hermiticity test and never reaches eigvalsh, which
    would raise LinAlgError with no index."""
    from duality_lab.states import BranchOverlaps

    grams = np.stack([np.eye(3, dtype=complex)] * 2)
    grams[j, 1, 0] = np.nan
    with pytest.raises(ValueError, match=f"^branch Gram {j} is not Hermitian$") as info:
        BranchOverlaps(weights=np.array([0.5, 0.5]), branch_grams=grams)
    assert type(info.value) is ValueError and info.value.index == (j,)


def test_composite_dimension_cap():
    q = PureQuanton(amplitudes=np.ones(32, dtype=complex) / np.sqrt(32))
    d = random_detectors(32, 64, 0)
    with pytest.raises(ValueError, match="composite dimension"):
        entangle_pure(q, d)


def test_induced_detectors_rejects_mixed_state():
    m = MixedDetectorInteraction(
        rho_d=validate_density(np.eye(2) / 2), unitaries=np.stack([np.eye(2), np.eye(2)])
    )
    with pytest.raises(ValueError, match="not pure"):
        induced_detectors(m)


# ------------------------------------------------- good-interaction property

def test_good_interaction_implication_orthogonal_branches():
    # rho_d lives on span(e1, e2); U_2 moves it to span(e3, e4), so the
    # post-interaction branches are orthogonal and both traces must vanish.
    rho_d = validate_density(np.diag([0.6, 0.4, 0.0, 0.0]))
    u2 = np.zeros((4, 4), dtype=complex)
    u2[2, 0] = u2[3, 1] = u2[0, 2] = u2[1, 3] = 1.0
    us = np.stack([np.eye(4, dtype=complex), u2])
    m = MixedDetectorInteraction(rho_d=rho_d, unitaries=us)
    moved = us @ rho_d.matrix
    states_after = np.einsum("iab,ibc->iac", moved, us.conj().transpose(0, 2, 1))
    ortho = np.trace(states_after[0] @ states_after[1])
    cross = np.trace(us[0] @ rho_d.matrix @ us[1].conj().T)
    assert abs(ortho) <= 1e-14
    assert abs(cross) <= 1e-14
    reduced = reduce_quanton_mixed_detector(random_density(2, 2, 34), m)
    assert abs(reduced.rho.matrix[0, 1]) <= 1e-14


def test_good_interaction_implication_random_instances():
    # quantitative form: |Tr(U_i rho U_j^dag)|^2 <= dim * Tr(U_i rho U_i^dag U_j rho U_j^dag),
    # so a vanishing branch overlap forces a vanishing cross trace
    rng = np.random.default_rng(35)
    for _ in range(200):
        dim = int(rng.integers(2, 6))
        rho = random_density_matrix(dim, int(rng.integers(1, dim + 1)), rng)
        u1, u2 = haar_unitary(dim, rng), haar_unitary(dim, rng)
        s1 = u1 @ rho.matrix @ u1.conj().T
        s2 = u2 @ rho.matrix @ u2.conj().T
        ortho = float(np.trace(s1 @ s2).real)
        cross = abs(np.trace(u1 @ rho.matrix @ u2.conj().T))
        assert cross ** 2 <= dim * ortho + 1e-12
