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


def random_pure(n: int, seed) -> PureQuanton:
    """Haar-random pure quanton: a normalized complex Gaussian vector."""
    if n < 2:
        raise ValueError("need at least 2 paths")
    rng = _as_rng(seed)
    amps = _complex_normal(rng, n)
    return PureQuanton(amplitudes=amps / np.linalg.norm(amps))


def random_density_matrix(dim: int, rank: int, seed) -> DensityMatrix:
    """Ginibre-random density matrix G G^dag / Tr(G G^dag) with G of shape (dim, rank)."""
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must lie in 1..{dim}, got {rank}")
    rng = _as_rng(seed)
    g = _complex_normal(rng, (dim, rank))
    m = g @ g.conj().T
    return validate_density(m / m.trace().real)


def random_density(n: int, rank: int, seed) -> MixedQuanton:
    """Ginibre-random mixed quanton on n paths; rank 1 gives pure states."""
    if n < 2:
        raise ValueError("need at least 2 paths")
    return MixedQuanton(rho=random_density_matrix(n, rank, seed))


def random_detectors(n: int, dim: int, seed) -> DetectorSet:
    """n independent Haar-random unit vectors in dimension dim."""
    if dim < 1:
        raise ValueError("detector dimension must be >= 1")
    rng = _as_rng(seed)
    vecs = _complex_normal(rng, (n, dim))
    vecs /= np.linalg.norm(vecs, axis=1)[:, None]
    return DetectorSet(vecs)


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
    rng = _as_rng(seed)
    rank = int(rng.integers(1, dim, endpoint=True))
    rho_d = random_density_matrix(dim, rank, rng)
    unitaries = np.stack([haar_unitary(dim, rng) for _ in range(n)])
    return MixedDetectorInteraction(rho_d=rho_d, unitaries=unitaries)


def haar_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix.

    The R factor's diagonal phases are absorbed into Q, which both fixes
    the QR gauge (making the draw genuinely Haar) and makes the result a
    deterministic function of the seed.
    """
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    rng = _as_rng(seed)
    z = _complex_normal(rng, (dim, dim)) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
