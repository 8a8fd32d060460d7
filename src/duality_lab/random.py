"""Reproducible random instance generation.

All generators run on numpy's PCG64 bit generator. A plain integer seed
always reproduces the same objects; independent streams for campaign
trials come from SeedSequence spawn keys, so trial k of a campaign is a
pure function of (root seed, k) regardless of execution order.
"""

from __future__ import annotations

import numpy as np

from .interference import uniform_overlap_gram
from .linalg import DensityMatrix, gram_factor_vectors, validate_density
from .states import DetectorSet, MixedDetectorInteraction, MixedQuanton, PureQuanton


def stream(seed: int, index: int) -> np.random.Generator:
    """Generator for sub-stream `index` of the root `seed`."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _pure_amplitudes(n: int, rng: np.random.Generator) -> np.ndarray:
    amps = _complex_normal(rng, n)
    return amps / np.linalg.norm(amps)


def _ginibre(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Unvalidated G G^dag / Tr(G G^dag) with G of shape (dim, rank)."""
    g = _complex_normal(rng, (dim, rank))
    m = g @ g.conj().T
    return m / m.trace().real


def _detector_vectors(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    vecs = _complex_normal(rng, (n, dim))
    vecs /= np.linalg.norm(vecs, axis=1)[:, None]
    return vecs


def _mixed_detector_draws(n: int, dim: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Unvalidated detector state and the (n, dim, dim) Gaussian matrices
    that _haar turns into the path unitaries."""
    rank = int(rng.integers(1, dim, endpoint=True))
    rho_d = _ginibre(dim, rank, rng)
    return rho_d, np.stack([_complex_normal(rng, (dim, dim)) / np.sqrt(2.0) for _ in range(n)])


def _haar(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from complex Gaussian matrices, over the trailing axes.

    The R factor's diagonal phases are absorbed into Q, which both fixes
    the QR gauge (making the draw genuinely Haar) and makes the result a
    deterministic function of the seed.
    """
    q, r = np.linalg.qr(z)
    d = r.diagonal(axis1=-2, axis2=-1)
    q *= (d / np.abs(d))[..., None, :]
    return q


def draw_trial(scenario: str, rng: np.random.Generator, n_choices, detector_dim: int | None,
               rank: int | None) -> tuple[int, int, tuple[np.ndarray, ...]]:
    """The raw draws of one campaign trial, unvalidated, in the campaign's draw order.

    Returns (n, dim, arrays): the path count drawn from `n_choices`, the
    detector dimension (uniform over n..2n unless given), and the arrays
    that the random_* generators would wrap: for pure_pure the amplitudes
    and detector vectors; for mixed_pure the quanton state (Ginibre rank
    uniform over 1..n unless given) and detector vectors; for mixed_mixed
    the quanton state, the detector state and the Gaussian matrices of the
    path unitaries.
    """
    n = int(n_choices[rng.integers(len(n_choices))])
    dim = detector_dim if detector_dim is not None else int(rng.integers(n, 2 * n, endpoint=True))
    if scenario == "pure_pure":
        return n, dim, (_pure_amplitudes(n, rng), _detector_vectors(n, dim, rng))
    r = rank if rank is not None else int(rng.integers(1, n, endpoint=True))
    rho = _ginibre(n, r, rng)
    if scenario == "mixed_pure":
        return n, dim, (rho, _detector_vectors(n, dim, rng))
    return n, dim, (rho, *_mixed_detector_draws(n, dim, rng))


def random_pure(n: int, seed) -> PureQuanton:
    """Haar-random pure quanton: a normalized complex Gaussian vector."""
    if n < 2:
        raise ValueError("need at least 2 paths")
    return PureQuanton(amplitudes=_pure_amplitudes(n, _as_rng(seed)))


def random_density_matrix(dim: int, rank: int, seed) -> DensityMatrix:
    """Ginibre-random density matrix G G^dag / Tr(G G^dag) with G of shape (dim, rank)."""
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must lie in 1..{dim}, got {rank}")
    return validate_density(_ginibre(dim, rank, _as_rng(seed)))


def random_density(n: int, rank: int, seed) -> MixedQuanton:
    """Ginibre-random mixed quanton on n paths; rank 1 gives pure states."""
    if n < 2:
        raise ValueError("need at least 2 paths")
    return MixedQuanton(rho=random_density_matrix(n, rank, seed))


def random_detectors(n: int, dim: int, seed) -> DetectorSet:
    """n independent Haar-random unit vectors in dimension dim."""
    if dim < 1:
        raise ValueError("detector dimension must be >= 1")
    return DetectorSet(_detector_vectors(n, dim, _as_rng(seed)))


def uniform_overlap_detectors(n: int, gamma: float, dim: int, seed) -> DetectorSet:
    """Detector set with every pairwise overlap equal to gamma.

    The Gram matrix (1 - gamma) I + gamma J is factorized into row
    vectors, embedded in `dim` dimensions, and rotated by a Haar-random
    unitary; the rotation changes nothing measurable but exercises
    detectors that do not live in a coordinate subspace.
    """
    gram = uniform_overlap_gram(n, gamma)
    if dim < n:
        raise ValueError(f"detector dimension {dim} cannot hold {n} states of this family")
    rng = _as_rng(seed)
    base = gram_factor_vectors(gram)
    embedded = np.zeros((n, dim), dtype=complex)
    embedded[:, :n] = base
    rotation = haar_unitary(dim, rng)
    return DetectorSet(embedded @ rotation.T)


def random_mixed_detector(n: int, dim: int, seed) -> MixedDetectorInteraction:
    """Mixed detector for n paths: a Ginibre detector state whose rank is
    drawn uniformly from 1..dim, then n Haar-random path unitaries, drawn
    in that order."""
    if dim < 1:
        raise ValueError("detector dimension must be >= 1")
    rho_d, z = _mixed_detector_draws(n, dim, _as_rng(seed))
    return MixedDetectorInteraction(rho_d=validate_density(rho_d), unitaries=_haar(z))


def haar_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix (see _haar)."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    return _haar(_complex_normal(_as_rng(seed), (dim, dim)) / np.sqrt(2.0))
