"""Scalar quantifiers: l1 coherence, normalized coherence, UQSD-based path
distinguishability for all three scenarios, the two-state IDP limit, and
the conversion to the visibility-style distinguishability.

Distinguishability here is always the unambiguous-discrimination success
bound, not an optimal success probability; no claim of attainability is
made anywhere.

Each quantity is written once, as a private formula over the trailing
axes of stacked arrays: the kernels in ``duality`` apply it to stacks, and
the public functions, the library API and the tests' oracle, to one object.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import DEFAULT_TOL, NotHermitianError, NotPSDError, _lowest_eigenvalues, _raise_first, as_matrix, dagger
from .states import BranchOverlaps, DetectorSet, MixedQuanton, PureQuanton, _branch_average

#: numerical-dust window: results may poke out of [0, 1] by at most this
#: much before clamping turns into an error
CLAMP_TOL = 1e-9


def _clamp_unit(x, what: str):
    """Clamp values within CLAMP_TOL of [0, 1] into it; a float for a scalar,
    an array for a stack. Written so that NaN fails the test as well."""
    x = np.asarray(x, dtype=float)
    _raise_first(~((x >= -CLAMP_TOL) & (x <= 1.0 + CLAMP_TOL)), ValueError,
                 lambda i: f"{what} = {float(x[i])!r} leaves [0, 1] by more than {CLAMP_TOL:.0e}")
    clamped = np.minimum(1.0, np.maximum(0.0, x))
    return float(clamped) if clamped.ndim == 0 else clamped


def _off_diagonal_sum(m: np.ndarray) -> np.ndarray:
    """Sum of the off-diagonal entries over the trailing (n, n) axes.

    numpy's summation order follows the memory layout, so the terms are made
    C-contiguous first: each matrix of a stack then sums to the same bits as
    the matrix alone.
    """
    m = np.ascontiguousarray(m)
    return m.sum(axis=(-2, -1)) - m.trace(axis1=-2, axis2=-1)


def coherence_l1(rho) -> float:
    """Sum of absolute values of the off-diagonal entries."""
    return float(_off_diagonal_sum(np.abs(as_matrix(rho))))


def coherence_normalized(rho) -> float:
    """l1 coherence divided by n - 1, lying in [0, 1] for density matrices."""
    rho = as_matrix(rho)
    if rho.shape[0] < 2:
        raise ValueError("normalized coherence needs dimension >= 2")
    return _coherence(rho)


def _coherence(rho: np.ndarray):
    """coherence_normalized over the trailing (n, n) axes."""
    return _clamp_unit(_off_diagonal_sum(np.abs(rho)) / (rho.shape[-1] - 1), "normalized coherence")


def _cross_sum(probs: np.ndarray, abs_gram: np.ndarray) -> np.ndarray:
    """sum_{i != j} sqrt(p_i p_j) |gram_ij| over the trailing axes."""
    s = np.sqrt(np.clip(probs, 0.0, None))
    return _off_diagonal_sum(s[..., :, None] * s[..., None, :] * abs_gram)


def _checked_probs(p: np.ndarray) -> None:
    """Finite, nonnegative probabilities summing to one, over the trailing axis."""
    _raise_first(~np.isfinite(p).all(axis=-1), ValueError,
                 lambda i: f"probabilities are not finite: {p[i]!r}")
    _raise_first((p < -DEFAULT_TOL).any(axis=-1), ValueError,
                 lambda i: f"negative probability {p[i].min()!r}")
    total = p.sum(axis=-1)
    _raise_first(np.abs(total - 1.0) > DEFAULT_TOL, ValueError,
                 lambda i: f"probabilities sum to {float(total[i])!r}, expected 1")


def uqsd_bound(probs, gram) -> float:
    """Upper bound on the success probability of unambiguously
    discriminating n states with pairwise overlaps `gram`, drawn with
    probabilities `probs`:

        1 - (1/(n-1)) sum_{i != j} sqrt(p_i p_j) |gram_ij|

    Equals 1 for orthogonal states. The bound is in general not
    attainable. The Gram is checked where it enters (_checked_gram).
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.shape[0] < 2:
        raise ValueError("need at least two probabilities")
    g = _checked_gram(gram, p.shape[0], "probabilities")
    _checked_probs(p)
    return _uqsd(p, g)


def _checked_gram(gram, n: int, counted: str) -> np.ndarray:
    """A Gram matrix given from outside, as a finite (n, n) complex array,
    once it is Hermitian within DEFAULT_TOL, has unit diagonal and is positive
    semidefinite, its lowest eigenvalue no lower than -DEFAULT_TOL. The
    diagonal is held to 1e-8: DetectorSet accepts norms within DEFAULT_TOL, so
    its Gram's diagonal may be off by about twice that."""
    g = as_matrix(gram)
    if g.shape != (n, n):
        raise ValueError(f"Gram shape {g.shape} does not match {n} {counted}")
    adjoint = dagger(g)
    herm_dev = np.abs(g - adjoint).max()
    if not herm_dev <= DEFAULT_TOL:
        raise NotHermitianError(f"Gram Hermiticity deviation {herm_dev:.3e} over {DEFAULT_TOL:.1e}")
    if not np.abs(g.diagonal() - 1.0).max() <= 1e-8:
        raise ValueError("Gram matrix must have unit diagonal (normalized states)")
    low = _lowest_eigenvalues((g + adjoint) / 2.0, -DEFAULT_TOL)
    if not low >= -DEFAULT_TOL:
        raise NotPSDError(f"Gram minimum eigenvalue {low:.3e} below -{DEFAULT_TOL:.1e}")
    return g


def _uqsd(p: np.ndarray, gram: np.ndarray):
    """uqsd_bound over stacks of (n,) probabilities and (n, n) Gram matrices
    that are already checked, or final by construction: those of validated
    quantons and of detector vectors (states._gram)."""
    return _clamp_unit(1.0 - _cross_sum(p, np.abs(gram)) / (p.shape[-1] - 1), "UQSD bound")


def distinguishability_pure(q: PureQuanton, d: DetectorSet) -> float:
    """Path distinguishability for a pure quanton, the UQSD bound with
    p_i = |c_i|^2 over the detector overlaps."""
    if q.n != d.n:
        raise ValueError(f"path count mismatch: quanton has {q.n}, detectors have {d.n}")
    return uqsd_bound(q.probabilities(), d.gram)


def distinguishability_mixed(q: MixedQuanton, gram) -> float:
    """Path distinguishability for a mixed quanton, p_i = rho_ii."""
    return uqsd_bound(q.path_probabilities(), gram)


def distinguishability_mixed_detector(q: MixedQuanton, b: BranchOverlaps) -> float:
    """Branch-averaged path distinguishability sum_k r_k D_k, where D_k is
    the mixed-quanton distinguishability against branch k's overlaps."""
    if b.n != q.n:
        raise ValueError(f"branch Gram size {b.n} does not match {q.n} paths")
    return _branch_distinguishability(q.path_probabilities(), b.weights, b.branch_grams)


def _branch_distinguishability(probs: np.ndarray, weights: np.ndarray, grams: np.ndarray):
    """distinguishability_mixed_detector over stacks of (n,) probabilities,
    (k,) branch weights and (k, n, n) branch Grams."""
    n = probs.shape[-1]
    per_branch = 1.0 - _cross_sum(probs[..., None, :], np.abs(grams)) / (n - 1)
    return _clamp_unit(_branch_average(weights, per_branch), "branch-averaged distinguishability")


def coherence_bound_mixed_detector(q: MixedQuanton, b: BranchOverlaps) -> float:
    """Branch-averaged upper bound on the reduced quanton's coherence,

        (1/(n-1)) sum_k r_k sum_{i != j} |rho_ij| |<d_ki|d_kj>|.

    The actual coherence of the reduced state never exceeds this value
    (triangle inequality over the spectral branches).
    """
    if b.n != q.n:
        raise ValueError(f"branch Gram size {b.n} does not match {q.n} paths")
    return float(_branch_coherence_bound(q.rho.matrix, b.weights, b.branch_grams))


def _branch_coherence_bound(rho: np.ndarray, weights: np.ndarray, grams: np.ndarray) -> np.ndarray:
    """coherence_bound_mixed_detector over stacks of (n, n) quanton states,
    (k,) branch weights and (k, n, n) branch Grams."""
    per_branch = _off_diagonal_sum(np.abs(rho)[..., None, :, :] * np.abs(grams))
    return _branch_average(weights, per_branch) / (rho.shape[-1] - 1)


def idp_limit(overlap: float) -> float:
    """Two-state unambiguous-discrimination limit 1 - |<d_1|d_2>|."""
    if not 0.0 <= overlap <= 1.0:
        raise ValueError(f"overlap must lie in [0, 1], got {overlap!r}")
    return 1.0 - overlap


def egy_distinguishability(dq: float) -> float:
    """Convert UQSD-style distinguishability to the visibility-style one.

    Inverts dq = 1 - sqrt(1 - D^2), giving D = sqrt(dq (2 - dq)); with
    this D the two-path duality V^2 + D^2 <= 1 saturates exactly where
    V + dq = 1 does.
    """
    if not 0.0 <= dq <= 1.0:
        raise ValueError(f"distinguishability must lie in [0, 1], got {dq!r}")
    return math.sqrt(dq * (2.0 - dq))


def mixed_duality_slack(q: MixedQuanton, gram) -> float:
    """The nonnegative residual closing the mixed duality into an identity:

        (1/(n-1)) sum_{i != j} (sqrt(rho_ii rho_jj) - |rho_ij|) |<d_j|d_i>|

    Zero exactly for pure quantons. The Gram is checked as uqsd_bound checks it.
    """
    return float(_slack(q.rho.matrix, _checked_gram(gram, q.n, "paths")))


def _slack(rho: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """mixed_duality_slack over stacks of (n, n) states and Gram matrices."""
    p = np.clip(rho.diagonal(axis1=-2, axis2=-1).real, 0.0, None)
    terms = (np.sqrt(p[..., :, None] * p[..., None, :]) - np.abs(rho)) * np.abs(gram)
    return _off_diagonal_sum(terms) / (rho.shape[-1] - 1)
