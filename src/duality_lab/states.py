"""Interferometer configurations: quantons, which-path detectors, and the
states they produce once the measurement interaction has acted.

The path basis is the computational basis of an n-dimensional space, so a
quanton "taking path i" is the basis vector e_i. Detector vectors are
normalized but in general non-orthogonal; all overlap structure lives in
the Gram matrix G[i, j] = <d_i|d_j>, conjugate-linear in the first slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    MAX_COMPOSITE_DIM,
    DensityMatrix,
    _lowest_eigenvalues,
    _raise_first,
    _spectrum,
    as_vector,
    dagger,
    frozen,
    partial_trace_second,
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
        _check_normalized(amps)
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


def _check_normalized(amps: np.ndarray) -> None:
    """PureQuanton's norm check over the trailing axis of a stack of amplitudes."""
    norm_sq = np.sum(np.abs(amps) ** 2, axis=-1)
    _raise_first(~(np.abs(norm_sq - 1.0) <= DEFAULT_TOL), ValueError,
                 lambda i: f"amplitudes not normalized: sum |c_i|^2 = {float(norm_sq[i])!r}")


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
    is formed from the validated vectors (_gram) when first read, and kept
    read-only. The kernels form their Grams from the vectors, so `verify`
    and evaluate_* never read it.
    """

    vectors: np.ndarray

    def __post_init__(self):
        vecs = np.asarray(self.vectors, dtype=complex)
        if vecs.ndim != 2:
            raise ValueError("vectors must be an (n, dim) array")
        _check_detector_vectors(vecs)
        object.__setattr__(self, "vectors", frozen(vecs))

    @cached_property
    def gram(self) -> np.ndarray:
        return frozen(_gram(self.vectors))

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def _check_detector_vectors(vecs: np.ndarray) -> None:
    """DetectorSet's checks on vectors given from outside, over stacks of
    (n, dim) vectors: finite entries and unit norms. Vectors the program
    builds, drawn or factored, are unit by construction and go to _gram
    unchecked."""
    _raise_first(~np.isfinite(vecs).all(axis=(-2, -1)), ValueError,
                 lambda i: "detector vectors contain NaN or Inf entries")
    worst = np.abs(np.linalg.norm(vecs, axis=-1) - 1.0).max(axis=-1)
    _raise_first(~(worst <= DEFAULT_TOL), ValueError,
                 lambda i: f"detector vectors not normalized, worst deviation {worst[i]:.3e}")


def _gram(vecs: np.ndarray) -> np.ndarray:
    """The Gram matrices <d_i|d_j> over the trailing (n, dim) axes of a stack of
    vectors. Every detector Gram is formed here: a detector set's, and each
    spectral branch's over its path kets (_branches)."""
    return vecs.conj() @ vecs.swapaxes(-1, -2)


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
        _check_unitaries(us)
        object.__setattr__(self, "unitaries", frozen(us))

    @property
    def n(self) -> int:
        return self.unitaries.shape[0]

    @property
    def dim(self) -> int:
        return self.rho_d.dim


def _check_unitaries(us: np.ndarray) -> None:
    """MixedDetectorInteraction's U^dag U = I check over stacks of (n, dim, dim)
    unitaries; the message names the first failing U_i. The deviation is the
    largest absolute row sum of U^dag U - I, which bounds its spectral norm and
    so every |<d|U^dag U - I|d>| for a unit d: a branch Gram's diagonal, and the
    reduced state's trace, then move by no more than the tolerance. The largest
    entry would not do: <d|U^dag U - I|d> can reach dim times it."""
    product = dagger(us) @ us
    product -= np.eye(us.shape[-1])
    devs = np.abs(product).sum(axis=-1).max(axis=-1)
    _raise_first(~(devs <= DEFAULT_TOL), ValueError,  # NaN fails as well
                 lambda i: f"U_{i[-1]} is not unitary, deviation {devs[i]:.3e}")


@dataclass(frozen=True)
class BranchOverlaps:
    """Spectral branches of the detector state with per-branch Gram matrices.

    weights[k] is the spectral probability r_k of rho_d and
    branch_grams[k, i, j] = <d_ki|d_kj> with |d_ki> = U_i |d_k>.
    """

    weights: np.ndarray
    branch_grams: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)  # a copy, frozen once checked
        grams = np.asarray(self.branch_grams, dtype=complex)
        if w.ndim != 1 or grams.ndim != 3 or grams.shape[0] != w.shape[0]:
            raise ValueError("weights and branch_grams shapes are inconsistent")
        if grams.shape[1] != grams.shape[2]:
            raise ValueError("branch Gram matrices must be square")
        _check_branch_weights(w)
        _check_branch_grams(grams)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "branch_grams", frozen(grams))

    @property
    def n(self) -> int:
        return self.branch_grams.shape[1]


def _check_branch_weights(w: np.ndarray) -> None:
    """BranchOverlaps' weight checks over stacks of (k,) weights: nonnegative
    and summing to one. Each test is written so that NaN fails it."""
    _raise_first(~(w >= 0.0).all(axis=-1), ValueError,
                 lambda i: f"branch weights must be nonnegative, got {w[i]!r}")
    total = w.sum(axis=-1)
    _raise_first(~(np.abs(total - 1.0) <= DEFAULT_TOL), ValueError,
                 lambda i: f"branch weights sum to {total[i]!r}, expected 1")


_GRAM_FAULTS = ("", "is not Hermitian", "does not have unit diagonal", "is not positive semidefinite")


def _check_branch_grams(grams: np.ndarray) -> None:
    """BranchOverlaps' Gram checks over stacks of (k, n, n) Grams given from
    outside: each Hermitian with unit diagonal and positive semidefinite, its
    lowest eigenvalue no lower than -DEFAULT_TOL. The kernels check no branch
    Gram: they form theirs from branches that are final by construction
    (states._branches, random._detector_branches). The eigenvalue test runs
    only on the Grams that pass the first two: one batched Cholesky certifies
    it for all of them at once; only when it cannot does one batched eigvalsh
    over them decide (linalg._lowest_eigenvalues). The message names the first
    failing Gram, by its index j along the branch axis, and the first check it
    fails; the exception's index is the Gram's full index. A Gram holding NaN
    fails the Hermiticity test."""
    adjoint = dagger(grams)
    diagonal = grams.diagonal(axis1=-2, axis2=-1)
    fault = np.select([~(np.abs(grams - adjoint).max(axis=(-2, -1)) <= DEFAULT_TOL),
                       ~(np.abs(diagonal - 1.0).max(axis=-1) <= DEFAULT_TOL)], [1, 2])
    # a NaN fails the first test; eigvalsh, which raises on NaN, sees only the Grams that pass both
    sane = fault == 0
    low = _lowest_eigenvalues(((grams + adjoint) / 2)[sane], -DEFAULT_TOL)
    fault[sane] = np.where(low >= -DEFAULT_TOL, 0, 3)
    _raise_first(fault > 0, ValueError, lambda i: f"branch Gram {i[-1]} {_GRAM_FAULTS[fault[i]]}")


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
    """Reduced quanton state for a mixed detector, entries
    rho_ij Tr(U_i rho_d U_j^dag) = rho_ij sum_k r_k <d_kj|d_ki>, the weighted
    sum (_overlap_average) over the branches and Grams of branch_overlaps."""
    if q.n != m.n:
        raise ValueError(f"path count mismatch: quanton has {q.n}, interaction has {m.n}")
    b = branch_overlaps(m)
    return MixedQuanton(rho=validate_density(q.rho.matrix * _overlap_average(b.weights, b.branch_grams)))


def branch_overlaps(m: MixedDetectorInteraction) -> BranchOverlaps:
    """Spectral branches of rho_d and the Gram matrix (_gram) of the path kets
    {U_i |d_k>} per branch (_branches).

    Branches with weight below BRANCH_WEIGHT_CUTOFF are dropped; they
    carry no probability and their Gram matrices are numerically
    meaningless.
    """
    weights, kets = _branches(m)
    # the path kets of all dim branches, the array the kernel is given, so the kept ones round as the kernel's do
    return BranchOverlaps(weights=weights[weights > 0.0], branch_grams=_gram(kets[weights > 0.0]))


def _branch_average(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """sum_k r_k x_k, added in branch order k = 0, 1, ... over the last axis."""
    total = np.zeros(weights.shape[:-1])
    for k in range(weights.shape[-1]):
        total = total + weights[..., k] * values[..., k]
    return total


def _overlap_average(weights: np.ndarray, grams: np.ndarray) -> np.ndarray:
    """The reduced state's factor Tr(U_i rho_d U_j^dag) = sum_k r_k <d_kj|d_ki>
    (_branch_average), over stacks of (k,) branch weights and (k, n, n)
    branch Grams. A branch of weight zero adds exact zeros."""
    return _branch_average(weights[..., None, None, :], np.moveaxis(grams, -3, -1)).swapaxes(-1, -2)


def _branches(m: MixedDetectorInteraction) -> tuple[np.ndarray, np.ndarray]:
    """An interaction's spectral branches, all dim of them: rho_d's weights
    (dim,) as in spectral_decompose, cut by _weighted, and the path kets
    U_i|d_k> (dim, n, dim), one product of the branch ket rows with the
    unitaries' (i, a) rows, so the kets come out C-contiguous for _gram, as a
    campaign draws them (random._draw_stack)."""
    weights, kets = _spectrum(m.rho_d.matrix)
    return _weighted(weights), (kets @ m.unitaries.reshape(-1, m.dim).T).reshape(m.dim, m.n, m.dim)


def _weighted(weights: np.ndarray) -> np.ndarray:
    """Branch weights below BRANCH_WEIGHT_CUTOFF set to zero, their branches
    kept in place: the weighted ones (weights > 0) are those branch_overlaps
    keeps, and a zero weight adds exact zeros to every branch average."""
    return np.where(weights >= BRANCH_WEIGHT_CUTOFF, weights, 0.0)


def induced_detectors(m: MixedDetectorInteraction) -> DetectorSet:
    """Detector set |d_i> = U_i |d> for a pure detector state |d><d|.

    Raises if rho_d is not numerically pure (largest eigenvalue within
    DEFAULT_TOL of 1). Useful for cross-checking the mixed-detector
    pipeline against the pure-detector one.
    """
    weights, kets = _branches(m)
    if abs(weights[0] - 1.0) > DEFAULT_TOL:
        raise ValueError(f"detector state is not pure, largest eigenvalue {float(weights[0])!r}")
    return DetectorSet(kets[0])
