"""Interferometer configurations: quantons, which-path detectors, and the
states they produce once the measurement interaction has acted.

The path basis is the computational basis of an n-dimensional space, so a
quanton "taking path i" is the basis vector e_i. Detector vectors are
normalized but in general non-orthogonal; all overlap structure lives in
the Gram matrix G[i, j] = <d_i|d_j>, conjugate-linear in the first slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    MAX_COMPOSITE_DIM,
    DensityMatrix,
    as_vector,
    dagger,
    frozen,
    partial_trace_second,
    spectral_decompose,
    validate_density,
)

BRANCH_WEIGHT_CUTOFF = 1e-12


@dataclass(frozen=True)
class PureQuanton:
    """Superposition over n paths with complex amplitudes c_i."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = as_vector(self.amplitudes)
        if amps.shape[0] < 2:
            raise ValueError("a quanton needs at least 2 paths")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > DEFAULT_TOL:
            raise ValueError(f"amplitudes not normalized: sum |c_i|^2 = {norm_sq!r}")
        object.__setattr__(self, "amplitudes", frozen(amps))

    @property
    def n(self) -> int:
        return self.amplitudes.shape[0]

    def probabilities(self) -> np.ndarray:
        """Path probabilities |c_i|^2."""
        return np.abs(self.amplitudes) ** 2

    def to_mixed(self) -> "MixedQuanton":
        """Rank-1 density matrix |c><c| in the path basis."""
        rho = np.outer(self.amplitudes, self.amplitudes.conj())
        return MixedQuanton(rho=validate_density(rho))


@dataclass(frozen=True)
class MixedQuanton:
    """Quanton state as a density matrix in the path basis."""

    rho: DensityMatrix

    def __post_init__(self):
        if self.rho.dim < 2:
            raise ValueError("a quanton needs at least 2 paths")

    @property
    def n(self) -> int:
        return self.rho.dim

    def path_probabilities(self) -> np.ndarray:
        return self.rho.diagonal()


@dataclass(frozen=True)
class DetectorSet:
    """n normalized detector vectors, rows of an (n, dim) array.

    The Gram matrix gram[i, j] = <d_i|d_j> is derived, not passed in: it
    is computed once from the validated vectors and stored read-only.
    """

    vectors: np.ndarray
    gram: np.ndarray = field(init=False)

    def __post_init__(self):
        vecs = np.asarray(self.vectors, dtype=complex)
        if vecs.ndim != 2:
            raise ValueError("vectors must be an (n, dim) array")
        if not np.all(np.isfinite(vecs)):
            raise ValueError("detector vectors contain NaN or Inf entries")
        norms = np.linalg.norm(vecs, axis=1)
        worst = float(np.max(np.abs(norms - 1.0)))
        if worst > DEFAULT_TOL:
            raise ValueError(f"detector vectors not normalized, worst deviation {worst:.3e}")
        object.__setattr__(self, "vectors", frozen(vecs))
        object.__setattr__(self, "gram", frozen(vecs.conj() @ vecs.T))

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class MixedDetectorInteraction:
    """Initial detector state rho_d plus per-path controlled unitaries U_i."""

    rho_d: DensityMatrix
    unitaries: np.ndarray

    def __post_init__(self):
        us = np.asarray(self.unitaries, dtype=complex)
        if us.ndim != 3 or us.shape[1] != us.shape[2]:
            raise ValueError("unitaries must be an (n, dim, dim) array")
        if us.shape[1] != self.rho_d.dim:
            raise ValueError(
                f"unitary dimension {us.shape[1]} does not match detector dimension {self.rho_d.dim}"
            )
        devs = np.abs(dagger(us) @ us - np.eye(us.shape[1])).max(axis=(1, 2))
        failing = np.flatnonzero(~(devs <= DEFAULT_TOL))  # NaN fails as well
        if failing.size:
            i = failing[0]
            raise ValueError(f"U_{i} is not unitary, deviation {devs[i]:.3e}")
        object.__setattr__(self, "unitaries", frozen(us))

    @property
    def n(self) -> int:
        return self.unitaries.shape[0]

    @property
    def dim(self) -> int:
        return self.rho_d.dim


@dataclass(frozen=True)
class BranchOverlaps:
    """Spectral branches of the detector state with per-branch Gram matrices.

    weights[k] is the spectral probability r_k of rho_d and
    branch_grams[k, i, j] = <d_ki|d_kj> with |d_ki> = U_i |d_k>.
    """

    weights: np.ndarray
    branch_grams: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        grams = np.asarray(self.branch_grams, dtype=complex)
        if w.ndim != 1 or grams.ndim != 3 or grams.shape[0] != w.shape[0]:
            raise ValueError("weights and branch_grams shapes are inconsistent")
        if grams.shape[1] != grams.shape[2]:
            raise ValueError("branch Gram matrices must be square")
        # every test below is written so that NaN fails it
        if not np.all(w >= 0.0):
            raise ValueError(f"branch weights must be nonnegative, got {w!r}")
        if not abs(float(w.sum()) - 1.0) <= DEFAULT_TOL:
            raise ValueError(f"branch weights sum to {w.sum()!r}, expected 1")
        adjoint = dagger(grams)
        not_hermitian = ~(np.abs(grams - adjoint).max(axis=(1, 2)) <= DEFAULT_TOL)
        not_unit = ~(np.abs(np.diagonal(grams, axis1=1, axis2=2) - 1.0).max(axis=1) <= DEFAULT_TOL)
        not_psd = ~(np.linalg.eigvalsh((grams + adjoint) / 2)[:, 0] >= -DEFAULT_TOL)
        failing = np.flatnonzero(not_hermitian | not_unit | not_psd)
        if failing.size:
            k = failing[0]
            what = ("is not Hermitian" if not_hermitian[k] else
                    "does not have unit diagonal" if not_unit[k] else
                    "is not positive semidefinite")
            raise ValueError(f"branch Gram {k} {what}")
        wobj = np.array(w, copy=True)
        wobj.setflags(write=False)
        object.__setattr__(self, "weights", wobj)
        object.__setattr__(self, "branch_grams", frozen(grams))

    @property
    def n(self) -> int:
        return self.branch_grams.shape[1]


def _check_composite(n: int, dim: int) -> None:
    if n * dim > MAX_COMPOSITE_DIM:
        raise ValueError(
            f"composite dimension {n}*{dim} exceeds the configured maximum {MAX_COMPOSITE_DIM}"
        )


def entangle_pure(q: PureQuanton, d: DetectorSet) -> np.ndarray:
    """Joint quanton-detector vector sum_i c_i (e_i tensor d_i).

    The result is normalized automatically because the detector vectors
    are unit vectors and the path basis is orthonormal.
    """
    if q.n != d.n:
        raise ValueError(f"path count mismatch: quanton has {q.n}, detectors have {d.n}")
    _check_composite(q.n, d.dim)
    return frozen((q.amplitudes[:, None] * d.vectors).reshape(-1))


def joint_mixed(q: MixedQuanton, d: DetectorSet) -> np.ndarray:
    """Post-interaction joint density matrix sum_ij rho_ij E_ij tensor |d_i><d_j|."""
    if q.n != d.n:
        raise ValueError(f"path count mismatch: quanton has {q.n}, detectors have {d.n}")
    _check_composite(q.n, d.dim)
    joint = np.einsum("ij,ia,jb->iajb", q.rho.matrix, d.vectors, d.vectors.conj())
    side = q.n * d.dim
    return frozen(joint.reshape(side, side))


def reduce_quanton(joint, n: int, dim: int) -> MixedQuanton:
    """Reduced quanton state, tracing the detector out of the joint state.

    For a joint state built from a detector set this lands on entries
    rho_ij <d_j|d_i>; here it is computed by the partial trace itself, so
    it works for any valid joint density matrix.
    """
    reduced = partial_trace_second(joint, n, dim)
    return MixedQuanton(rho=validate_density(reduced))


def reduce_quanton_mixed_detector(q: MixedQuanton, m: MixedDetectorInteraction) -> MixedQuanton:
    """Reduced quanton state for a mixed detector, entries rho_ij Tr(U_i rho_d U_j^dag)."""
    if q.n != m.n:
        raise ValueError(f"path count mismatch: quanton has {q.n}, interaction has {m.n}")
    moved = m.unitaries @ m.rho_d.matrix
    overlap_factors = np.einsum("iab,jab->ij", moved, m.unitaries.conj())
    return MixedQuanton(rho=validate_density(q.rho.matrix * overlap_factors))


def branch_overlaps(m: MixedDetectorInteraction) -> BranchOverlaps:
    """Spectral branches of rho_d and the Gram matrix of {U_i |d_k>} per branch.

    Branches with weight below BRANCH_WEIGHT_CUTOFF are dropped; they
    carry no probability and their Gram matrices are numerically
    meaningless.
    """
    pairs = [(w, v) for w, v in spectral_decompose(m.rho_d) if w >= BRANCH_WEIGHT_CUTOFF]
    weights = np.array([w for w, _ in pairs])
    kets = np.array([v for _, v in pairs])
    # moved[k, i] = U_i |d_k>
    moved = np.einsum("iab,kb->kia", m.unitaries, kets)
    grams = np.einsum("kia,kja->kij", moved.conj(), moved)
    return BranchOverlaps(weights=weights, branch_grams=grams)


def induced_detectors(m: MixedDetectorInteraction) -> DetectorSet:
    """Detector set |d_i> = U_i |d> for a pure detector state |d><d|.

    Raises if rho_d is not numerically pure (largest eigenvalue within
    DEFAULT_TOL of 1). Useful for cross-checking the mixed-detector
    pipeline against the pure-detector one.
    """
    branches = spectral_decompose(m.rho_d)
    top_weight, ket = branches[0]
    if abs(top_weight - 1.0) > DEFAULT_TOL:
        raise ValueError(f"detector state is not pure, largest eigenvalue {top_weight!r}")
    vectors = np.einsum("iab,b->ia", m.unitaries, ket)
    return DetectorSet(vectors)
