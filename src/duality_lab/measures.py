"""Scalar quantifiers: l1 coherence, normalized coherence, UQSD-based path
distinguishability for all three scenarios, the two-state IDP limit, and
the conversion to the visibility-style distinguishability.

Distinguishability here is always the unambiguous-discrimination success
bound, not an optimal success probability; no claim of attainability is
made anywhere.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import DEFAULT_TOL, as_matrix
from .states import BranchOverlaps, DetectorSet, MixedQuanton, PureQuanton

#: numerical-dust window: results may poke out of [0, 1] by at most this
#: much before clamping turns into an error
CLAMP_TOL = 1e-9


def _clamp_unit(x: float, what: str) -> float:
    # written so that NaN fails the test as well
    if not -CLAMP_TOL <= x <= 1.0 + CLAMP_TOL:
        raise ValueError(f"{what} = {x!r} leaves [0, 1] by more than {CLAMP_TOL:.0e}")
    return float(min(1.0, max(0.0, x)))


def coherence_l1(rho) -> float:
    """Sum of absolute values of the off-diagonal entries."""
    m = np.abs(as_matrix(rho))
    return float(m.sum() - m.trace())


def coherence_normalized(rho) -> float:
    """l1 coherence divided by n - 1, lying in [0, 1] for density matrices."""
    n = as_matrix(rho).shape[0]
    if n < 2:
        raise ValueError("normalized coherence needs dimension >= 2")
    return _clamp_unit(coherence_l1(rho) / (n - 1), "normalized coherence")


def _cross_sum(probs: np.ndarray, abs_gram: np.ndarray) -> float:
    """sum_{i != j} sqrt(p_i p_j) |gram_ij|."""
    s = np.sqrt(np.clip(probs, 0.0, None))
    weighted = np.outer(s, s) * abs_gram
    return float(weighted.sum() - weighted.trace())


def _checked_probs(probs) -> np.ndarray:
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.shape[0] < 2:
        raise ValueError("need at least two probabilities")
    if not np.all(np.isfinite(p)):
        raise ValueError(f"probabilities are not finite: {p!r}")
    if np.any(p < -DEFAULT_TOL):
        raise ValueError(f"negative probability {p.min()!r}")
    total = float(p.sum())
    if abs(total - 1.0) > DEFAULT_TOL:
        raise ValueError(f"probabilities sum to {total!r}, expected 1")
    return p


def uqsd_bound(probs, gram) -> float:
    """Upper bound on the success probability of unambiguously
    discriminating n states with pairwise overlaps `gram`, drawn with
    probabilities `probs`:

        1 - (1/(n-1)) sum_{i != j} sqrt(p_i p_j) |gram_ij|

    Equals 1 for orthogonal states. The bound is in general not
    attainable.
    """
    p = _checked_probs(probs)
    g = as_matrix(gram)
    if g.shape != (p.shape[0], p.shape[0]):
        raise ValueError(f"Gram shape {g.shape} does not match {p.shape[0]} probabilities")
    if np.max(np.abs(g.diagonal() - 1.0)) > 1e-8:
        raise ValueError("Gram matrix must have unit diagonal (normalized states)")
    n = p.shape[0]
    return _clamp_unit(1.0 - _cross_sum(p, np.abs(g)) / (n - 1), "UQSD bound")


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
    probs = q.path_probabilities()
    n = q.n
    total = 0.0
    for weight, gram in zip(b.weights, b.branch_grams):
        total += weight * (1.0 - _cross_sum(probs, np.abs(gram)) / (n - 1))
    return _clamp_unit(total, "branch-averaged distinguishability")


def coherence_bound_mixed_detector(q: MixedQuanton, b: BranchOverlaps) -> float:
    """Branch-averaged upper bound on the reduced quanton's coherence,

        (1/(n-1)) sum_k r_k sum_{i != j} |rho_ij| |<d_ki|d_kj>|.

    The actual coherence of the reduced state never exceeds this value
    (triangle inequality over the spectral branches).
    """
    if b.n != q.n:
        raise ValueError(f"branch Gram size {b.n} does not match {q.n} paths")
    absrho = np.abs(q.rho.matrix)
    n = q.n
    total = 0.0
    for weight, gram in zip(b.weights, b.branch_grams):
        weighted = absrho * np.abs(gram)
        total += weight * float(weighted.sum() - weighted.trace())
    return float(total) / (n - 1)


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

    Zero exactly for pure quantons.
    """
    g = as_matrix(gram)
    if g.shape != (q.n, q.n):
        raise ValueError(f"Gram shape {g.shape} does not match {q.n} paths")
    rho = q.rho.matrix
    p = np.clip(rho.diagonal().real, 0.0, None)
    terms = (np.sqrt(np.outer(p, p)) - np.abs(rho)) * np.abs(g)
    return float(terms.sum() - terms.trace()) / (q.n - 1)
