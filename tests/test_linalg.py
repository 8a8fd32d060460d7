import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duality_lab.linalg import (
    DensityMatrix,
    NotHermitianError,
    NotPSDError,
    NotUnitTraceError,
    _gram_factors,
    gram_factor_vectors,
    partial_trace_second,
    principal_submatrix_margin,
    spectral_decompose,
    tensor,
    validate_density,
)


def _rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _ginibre_density(rng, n, rank=None):
    g = _rand_complex(rng, (n, rank or n))
    m = g @ g.conj().T
    return m / m.trace().real


# ---------------------------------------------------------------- tensor

def test_tensor_identity():
    np.testing.assert_array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_basis_projectors():
    out = tensor(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    np.testing.assert_array_equal(out, np.diag([0.0, 1.0, 0.0, 0.0]))


def test_tensor_against_index_oracle():
    rng = np.random.default_rng(11)
    a = _rand_complex(rng, (2, 2))
    b = _rand_complex(rng, (3, 3))
    out = tensor(a, b)
    # brute-force index formula: entry (i*3+k, j*3+l) = a[i,j] b[k,l]
    # (1 ulp slack: numpy's kron may fuse the complex multiply)
    for i in range(2):
        for j in range(2):
            for k in range(3):
                for l in range(3):
                    assert abs(out[i * 3 + k, j * 3 + l] - a[i, j] * b[k, l]) <= 1e-15


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
def test_tensor_associative(seed, da, db, dc):
    rng = np.random.default_rng(seed)
    a, b, c = (_rand_complex(rng, (d, d)) for d in (da, db, dc))
    left = tensor(tensor(a, b), c)
    right = tensor(a, tensor(b, c))
    assert np.max(np.abs(left - right)) <= 1e-12


def test_tensor_dimension_cap():
    with pytest.raises(ValueError, match="exceeds"):
        tensor(np.eye(64), np.eye(64))


# ---------------------------------------------------- partial_trace_second

def test_partial_trace_product_state():
    rng = np.random.default_rng(3)
    rho = _ginibre_density(rng, 2)
    sigma = _rand_complex(rng, (3, 3))
    out = partial_trace_second(tensor(rho, sigma), 2, 3)
    np.testing.assert_allclose(out, rho * sigma.trace(), atol=1e-12)


def test_partial_trace_identity():
    np.testing.assert_array_equal(partial_trace_second(np.eye(4), 2, 2), 2.0 * np.eye(2))


def test_partial_trace_against_loop_oracle():
    rng = np.random.default_rng(4)
    m = _rand_complex(rng, (6, 6))
    out = partial_trace_second(m, 2, 3)
    expect = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(3):
                expect[i, j] += m[i * 3 + k, j * 3 + k]
    np.testing.assert_allclose(out, expect, atol=1e-14)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 4))
def test_partial_trace_preserves_trace(seed, d1, d2):
    rng = np.random.default_rng(seed)
    m = _rand_complex(rng, (d1 * d2, d1 * d2))
    assert abs(partial_trace_second(m, d1, d2).trace() - m.trace()) <= 1e-12


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValueError, match="does not match"):
        partial_trace_second(np.eye(5), 2, 3)


# ---------------------------------------------------------- validate_density

def test_validate_accepts_maximally_mixed():
    dm = validate_density(np.eye(2) / 2)
    assert isinstance(dm, DensityMatrix)
    assert dm.dim == 2


def test_validate_rejects_negative_eigenvalue():
    with pytest.raises(NotPSDError, match="eigenvalue"):
        validate_density(np.diag([1.5, -0.5]))


def test_validate_rejects_non_hermitian():
    with pytest.raises(NotHermitianError, match="deviation"):
        validate_density(np.array([[0.5, 0.5], [0.0, 0.5]]))


def test_validate_rejects_wrong_trace():
    with pytest.raises(NotUnitTraceError, match="trace"):
        validate_density(np.eye(2))


def test_validate_accepts_ginibre():
    rng = np.random.default_rng(7)
    for _ in range(50):
        dm = validate_density(_ginibre_density(rng, 4))
        assert abs(dm.matrix.trace() - 1.0) <= 1e-14


def test_validate_clamps_tiny_negative_eigenvalue():
    eps = 5e-11
    dm = validate_density(np.diag([1.0 + eps, -eps]))
    vals = np.linalg.eigvalsh(dm.matrix)
    assert vals.min() >= 0.0
    assert abs(dm.matrix.trace() - 1.0) <= 1e-15


def test_validated_matrix_is_read_only():
    dm = validate_density(np.eye(3) / 3)
    with pytest.raises(ValueError):
        dm.matrix[0, 0] = 0.0


@pytest.mark.parametrize("call, message", [
    (lambda: tensor(np.ones(3), np.eye(2)), "expected a 2-D matrix, got shape (3,)"),
    (lambda: tensor(np.eye(2), np.full((2, 2), np.nan)), "matrix contains NaN or Inf entries"),
    (lambda: validate_density(np.ones((2, 3)) / 2),
     "density matrix must be a non-empty square matrix, got shape (2, 3)"),
    (lambda: gram_factor_vectors(np.ones((2, 3))), "Gram matrix must be square"),
], ids=["not-2d", "nan", "density-not-square", "gram-not-square"])
def test_malformed_matrices_raise(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_validate_rejects_nan():
    m = np.eye(2, dtype=complex) / 2
    m[0, 1] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        validate_density(m)


# --------------------------------------------------------- spectral_decompose

def test_spectral_simple_diagonal():
    pairs = spectral_decompose(validate_density(np.diag([0.7, 0.3])))
    vals = [v for v, _ in pairs]
    np.testing.assert_allclose(vals, [0.7, 0.3], atol=1e-14)
    np.testing.assert_allclose(np.abs(pairs[0][1]), [1.0, 0.0], atol=1e-14)


def test_spectral_degenerate_orthonormal():
    pairs = spectral_decompose(validate_density(np.eye(2) / 2))
    vals = [v for v, _ in pairs]
    np.testing.assert_allclose(vals, [0.5, 0.5], atol=1e-14)
    v0, v1 = pairs[0][1], pairs[1][1]
    assert abs(np.vdot(v0, v1)) <= 1e-12
    assert abs(np.linalg.norm(v0) - 1.0) <= 1e-12


def test_spectral_reconstruction():
    rng = np.random.default_rng(12)
    for _ in range(25):
        dm = validate_density(_ginibre_density(rng, 4))
        pairs = spectral_decompose(dm)
        recon = sum(w * np.outer(v, v.conj()) for w, v in pairs)
        assert np.max(np.abs(recon - dm.matrix)) <= 1e-10
        assert all(w >= 0.0 for w, _ in pairs)
        assert abs(sum(w for w, _ in pairs) - 1.0) <= 1e-12
        ordered = [w for w, _ in pairs]
        assert ordered == sorted(ordered, reverse=True)


# ------------------------------------------------- principal submatrix margin

def test_principal_submatrix_margin_nonnegative_on_densities():
    rng = np.random.default_rng(13)
    for _ in range(2000):
        n = int(rng.integers(2, 9))
        rank = int(rng.integers(1, n + 1))
        dm = validate_density(_ginibre_density(rng, n, rank))
        assert principal_submatrix_margin(dm.matrix) >= -1e-10


def test_principal_submatrix_margin_detects_violation():
    assert principal_submatrix_margin(np.array([[0.5, 0.9], [0.9, 0.5]])) < 0


# --------------------------------------------------------- gram factorization

def test_gram_factor_roundtrip_uniform():
    g = 0.5 * np.eye(3) + 0.5 * np.ones((3, 3))
    vecs = gram_factor_vectors(g)
    np.testing.assert_allclose(vecs.conj() @ vecs.T, g, atol=1e-12)


def test_gram_factor_rank_one():
    vecs = gram_factor_vectors(np.ones((4, 4)))
    np.testing.assert_allclose(vecs.conj() @ vecs.T, np.ones((4, 4)), atol=1e-12)


def test_gram_factor_complex_hermitian():
    rng = np.random.default_rng(15)
    v = _rand_complex(rng, (4, 6))
    g = v.conj() @ v.T
    vecs = gram_factor_vectors(g)
    np.testing.assert_allclose(vecs.conj() @ vecs.T, g, atol=1e-10)


def test_gram_factor_rejects_indefinite():
    with pytest.raises(NotPSDError):
        gram_factor_vectors(np.array([[1.0, 2.0], [2.0, 1.0]]))


@pytest.mark.parametrize("bad, error", [
    (np.array([[1.0, 0.5], [0.2, 1.0]]), NotHermitianError),
    (np.array([[1.0, 2.0], [2.0, 1.0]]), NotPSDError),
], ids=["not_hermitian", "not_psd"])
def test_stacked_gram_factors_name_the_bad_entry(bad, error):
    """A bad Gram in a stack raises the single-matrix message, and the
    exception's index names its place in the stack."""
    with pytest.raises(error) as single:
        gram_factor_vectors(bad)
    stack = np.stack([np.eye(2), 0.5 * np.ones((2, 2)) + 0.5 * np.eye(2), bad, bad])
    with pytest.raises(error) as stacked:
        _gram_factors(stack)
    assert str(stacked.value) == str(single.value)
    assert stacked.value.index == (2,)
