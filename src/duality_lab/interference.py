"""Far-field n-slit intensity patterns and fringe visibility.

The propagation model is a uniform grating: path i contributes phase
exp(i * i * theta) at detection angle parameter theta, so the pattern is

    I(theta) = sum_ij rho_ij exp(i (i - j) theta) = sum_m c_m exp(i m theta)

for the reduced (post-interaction) quanton state rho, with c_m the sum of
rho_ij over i - j = m. Intensities are in units of total path probability,
so I averages to 1 over a period. The fringe extrema are exact (roots of
dI/dtheta), so the visibility depends on rho alone and the sampled grid
only serves plotting. For the symmetric two- and three-slit families this
model reproduces the closed-form visibility / coherence correspondences
exactly.

The sampled grid at theta_t = 2 pi t / N is the inverse DFT of the c_m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import gram_factor_vectors
from .states import DetectorSet, MixedQuanton

DEFAULT_GRID_POINTS = 4096
MIN_GRID_POINTS = 256
MAX_GRID_POINTS = 1 << 16
FLAT_PATTERN_TOL = 1e-12


class GridSizeError(ValueError):
    """A grid size outside MIN_GRID_POINTS..MAX_GRID_POINTS; `bound` is the limit it breaks."""

    def __init__(self, bound: str):
        super().__init__(f"grid_points {bound}")
        self.bound = bound


@dataclass(frozen=True)
class FringeScan:
    """Sampled intensity pattern with exact extrema and visibility."""

    phases: np.ndarray
    intensities: np.ndarray
    i_max: float
    i_min: float
    visibility: float


def intensity(rho_reduced: MixedQuanton, theta: float) -> float:
    """Pattern value at one phase; real, clamped at zero against dust."""
    rho = rho_reduced.rho.matrix
    k = np.arange(rho.shape[0])
    v = np.exp(1j * k * theta)
    value = float(np.real(v @ rho @ v.conj()))
    if value < -FLAT_PATTERN_TOL:
        raise ValueError(f"intensity {value!r} is negative beyond numerical dust")
    return max(value, 0.0)


def scan_visibility(rho_reduced: MixedQuanton, grid_points: int = DEFAULT_GRID_POINTS) -> FringeScan:
    """Sample one period and take the visibility (i_max - i_min) / (i_max + i_min)
    from the exact extrema, which do not depend on `grid_points`.

    With z = exp(i theta), z^(n-1) dI/dtheta / i = sum_m m c_m z^(m+n-1) is
    a polynomial of degree 2(n-1) whose unit-circle roots are the
    stationary phases. Every root is projected onto the circle and phase 0
    is added; a phase that is not stationary only adds a value between the
    extrema, and phase 0 alone stands for a flat pattern. Terms with |c_m|
    below machine epsilon are dropped first: each moves I by at most
    2|c_m|, and a tiny leading coefficient overflows the root finder. A
    spread below FLAT_PATTERN_TOL reports zero visibility.
    """
    if grid_points < MIN_GRID_POINTS:
        raise GridSizeError(f"must be >= {MIN_GRID_POINTS}, got {grid_points}")
    if grid_points > MAX_GRID_POINTS:
        raise GridSizeError(f"must be <= {MAX_GRID_POINTS}, got {grid_points}")
    rho = rho_reduced.rho.matrix
    orders = np.arange(rho.shape[0] - 1, -rho.shape[0], -1)
    coeffs = np.array([np.trace(rho, offset=-m) for m in orders])
    # orders that alias modulo grid_points (2n - 1 > N) must add
    spectrum = np.zeros(grid_points, dtype=complex)
    np.add.at(spectrum, orders % grid_points, coeffs)
    values = np.clip(np.fft.ifft(spectrum).real * grid_points, 0.0, None)
    coeffs[np.abs(coeffs) < np.finfo(float).eps] = 0.0
    phases = np.append(np.angle(np.roots(orders * coeffs)), 0.0)
    extrema = [intensity(rho_reduced, theta) for theta in phases]
    i_max, i_min = max(extrema), min(extrema)
    spread = i_max - i_min
    visibility = 0.0 if spread < FLAT_PATTERN_TOL else spread / (i_max + i_min)
    return FringeScan(
        phases=np.linspace(0.0, 2.0 * math.pi, grid_points, endpoint=False),
        intensities=values,
        i_max=i_max,
        i_min=i_min,
        visibility=visibility,
    )


def uniform_overlap_gram(n: int, gamma: float) -> np.ndarray:
    """Gram matrix with unit diagonal and every off-diagonal overlap gamma."""
    return _uniform_overlap_grams(n, [gamma])[0]


def _uniform_overlap_grams(n: int, gammas: Sequence[float]) -> np.ndarray:
    """uniform_overlap_gram of each gamma, as one (k, n, n) stack; the first
    gamma outside [0, 1] raises."""
    for gamma in gammas:
        if not 0.0 <= gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {gamma!r}")
    if n < 2:
        raise ValueError("need at least 2 detector states")
    column = np.array(gammas, dtype=float)[:, None, None]
    return (1.0 - column) * np.eye(n) + column * np.ones((n, n))


def symmetric_detectors(n: int, gamma: float) -> DetectorSet:
    """Deterministic n-state detector set with all pairwise overlaps gamma."""
    return DetectorSet(gram_factor_vectors(uniform_overlap_gram(n, gamma)))
