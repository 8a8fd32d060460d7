"""Far-field n-slit intensity patterns and fringe visibility.

The propagation model is a uniform grating: path i contributes phase
exp(i * i * theta) at detection angle parameter theta, so the pattern is

    I(theta) = sum_ij rho_ij exp(i (i - j) theta) = sum_m c_m exp(i m theta)

for the reduced (post-interaction) quanton state rho, with c_m the sum of
rho_ij over i - j = m. Intensities are in units of total path probability,
so I averages to 1 over a period. The fringe extrema are exact (roots of
dI/dtheta), so the visibility depends on rho alone and the sampled grid
only serves plotting. A scan evaluates its candidate extrema in one
stacked product and takes its c_m in one gathered sum. For the symmetric
two- and three-slit families this model reproduces the closed-form
visibility / coherence correspondences exactly.

The sampled grid at theta_t = 2 pi t / N is the inverse DFT of the c_m. A
scan keeps the c_m and the grid size and computes both grid arrays, the
phases and their intensities, only when they are read, so sweeps and
`verify`, which read the visibility alone, never build them. `fringe` reads
the intensities. Its phase column is text that depends on N alone, so it is
formatted once per grid size in a process and kept for one size at a time:
0.31 MB at N = 4096 and 4.9 MB at MAX_GRID_POINTS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .linalg import gram_factor_vectors
from .states import DetectorSet, MixedQuanton

DEFAULT_GRID_POINTS = 4096
MIN_GRID_POINTS = 256
MAX_GRID_POINTS = 1 << 16
FLAT_PATTERN_TOL = 1e-12


def _check_grid_points(grid_points: int, name: str = "grid_points") -> None:
    """Raise unless MIN_GRID_POINTS <= grid_points <= MAX_GRID_POINTS; the
    message names the size `name`, such as the flag that gave it."""
    if grid_points < MIN_GRID_POINTS:
        raise ValueError(f"{name} must be >= {MIN_GRID_POINTS}, got {grid_points}")
    if grid_points > MAX_GRID_POINTS:
        raise ValueError(f"{name} must be <= {MAX_GRID_POINTS}, got {grid_points}")


@dataclass(frozen=True)
class FringeScan:
    """Exact extrema and visibility of a pattern, and its sampled grid.

    `coefficients` holds the c_m for m = n - 1 down to 1 - n. `phases` are
    the `grid_points` phases of one period, and `intensities`, the pattern
    at them, is the inverse DFT of the c_m. Both are computed on first read
    and cached, so a scan whose grid is never read never builds it.
    """

    grid_points: int
    coefficients: np.ndarray
    i_max: float
    i_min: float
    visibility: float

    @cached_property
    def phases(self) -> np.ndarray:
        return _phase_grid(self.grid_points)

    @cached_property
    def intensities(self) -> np.ndarray:
        half = len(self.coefficients) // 2
        # orders that alias modulo grid_points (2n - 1 > N) must add
        spectrum = np.zeros(self.grid_points, dtype=complex)
        np.add.at(spectrum, np.arange(half, -half - 1, -1) % self.grid_points, self.coefficients)
        return np.clip(np.fft.ifft(spectrum).real * self.grid_points, 0.0, None)


def _phase_grid(grid_points: int) -> np.ndarray:
    """The `grid_points` phases 2 pi t / N of one period."""
    return np.linspace(0.0, 2.0 * math.pi, grid_points, endpoint=False)


@lru_cache(maxsize=1)
def _phase_cells(grid_points: int) -> tuple[str, ...]:
    """The phases of _phase_grid as CSV cells with 17 significant digits,
    formatted on the first call at a grid size; the text of the last size
    is kept."""
    return tuple(map("%.17g".__mod__, _phase_grid(grid_points).tolist()))


def intensity(rho_reduced: MixedQuanton, theta: float | np.ndarray) -> float | np.ndarray:
    """Pattern value at one phase, as a float, or at each of a 1-D array of
    phases, as an array, from one stacked product; real, clamped at zero
    against dust. A value below -FLAT_PATTERN_TOL raises, naming the most
    negative one."""
    rho = rho_reduced.rho.matrix
    k = np.arange(rho.shape[0])
    v = np.exp(1j * k * np.asarray(theta)[..., None])
    values = np.real(v[..., None, :] @ rho @ v.conj()[..., :, None])[..., 0, 0]
    if (dust := values < -FLAT_PATTERN_TOL).any():
        raise ValueError(f"intensity {float(values[dust].min())!r} is negative beyond numerical dust")
    values = np.where(values < 0.0, 0.0, values)
    return float(values) if np.ndim(theta) == 0 else values


@lru_cache(maxsize=4)
def _diagonal_slots(n: int) -> np.ndarray:
    """Indices into np.append(rho, -0j) that lay the diagonal of each order
    m = n - 1 .. 1 - n out as one row, so that one sum along the rows gives
    the c_m of the loop of rho.trace(offset=-m), bit for bit, for n <= 63.

    numpy sums a row of up to 64 complex values in four interleaved partial
    sums over its first multiple of 4, taken as ((s0 + s1) + (s2 + s3)),
    and adds the rest one by one. The rows are n | 3 wide, 3 mod 4: each
    diagonal keeps its first multiple of 4 in place, puts the rest in the
    last three slots and fills the others with -0, which adds nothing, so
    its sum is taken in the trace's order. The tables of the last four path
    counts are kept, read-only, each about the size of rho.
    """
    table = np.full((2 * n - 1, n | 3), n * n)
    for row, m in zip(table, range(n - 1, -n, -1)):
        t = np.arange(n - abs(m))
        body = len(t) - len(t) % 4
        row[np.where(t < body, t, t - body + n - n % 4)] = t * (n + 1) + max(m * n, -m)
    table.flags.writeable = False
    return table


def scan_visibility(rho_reduced: MixedQuanton, grid_points: int = DEFAULT_GRID_POINTS) -> FringeScan:
    """Take the visibility (i_max - i_min) / (i_max + i_min) from the exact
    extrema, which do not depend on `grid_points`. The scan samples one
    period at `grid_points` phases only when its grid is read.

    With z = exp(i theta), z^(n-1) dI/dtheta / i = sum_m m c_m z^(m+n-1) is
    a polynomial of degree 2(n-1) whose unit-circle roots are the
    stationary phases. Every root is projected onto the circle and phase 0
    is added; a phase that is not stationary only adds a value between the
    extrema, and phase 0 alone stands for a flat pattern. Terms with |c_m|
    below machine epsilon are dropped first: each moves I by at most
    2|c_m|, and a tiny leading coefficient overflows the root finder. A
    spread below FLAT_PATTERN_TOL reports zero visibility.
    """
    _check_grid_points(grid_points)
    rho = rho_reduced.rho.matrix
    orders = np.arange(rho.shape[0] - 1, -rho.shape[0], -1)
    coeffs = np.append(rho, -0j)[_diagonal_slots(rho.shape[0])].sum(axis=1)
    kept = np.where(np.abs(coeffs) < np.finfo(float).eps, 0.0, coeffs)
    phases = np.append(np.angle(_roots(orders * kept)), 0.0)
    # Python's max and min, as over one call per phase: the first of equal
    # extrema, its zero's sign kept
    extrema = intensity(rho_reduced, phases).tolist()
    i_max, i_min = max(extrema), min(extrema)
    spread = i_max - i_min
    visibility = 0.0 if spread < FLAT_PATTERN_TOL else spread / (i_max + i_min)
    return FringeScan(
        grid_points=grid_points,
        coefficients=coeffs,
        i_max=i_max,
        i_min=i_min,
        visibility=visibility,
    )


def _roots(p: np.ndarray) -> np.ndarray:
    """np.roots of a float or complex coefficient vector, highest power
    first, bit for bit: leading and trailing zeros stripped, the same
    companion matrix, its eigvals, and one zero root per trailing zero."""
    nonzero = np.flatnonzero(p)
    if not len(nonzero):
        return np.array([])
    trailing = len(p) - 1 - nonzero[-1]
    p = p[nonzero[0]:nonzero[-1] + 1]
    if len(p) > 1:
        companion = np.diag(np.ones(len(p) - 2, p.dtype), -1)
        companion[0] = -p[1:] / p[0]
        roots = np.linalg.eigvals(companion)
    else:
        roots = np.array([])
    return np.concatenate((roots, np.zeros(trailing, roots.dtype)))


def uniform_overlap_gram(n: int, gamma: float) -> np.ndarray:
    """Gram matrix with unit diagonal and every off-diagonal overlap gamma."""
    return _uniform_overlap_grams(n, [gamma])[0]


def _gamma_grid(gammas: Sequence[float], name: str = "gammas") -> list[float]:
    """The gammas as floats, checked to be a nonempty grid in [0, 1] (NaN is
    not) that ascends; a message names the grid `name`, such as the flag
    that gave it. The one home of the gamma rule: a single gamma is a grid
    of one."""
    gammas = [float(g) for g in gammas]
    if not gammas:
        raise ValueError(f"{name} gives an empty gamma grid")
    if not all(0.0 <= g <= 1.0 for g in gammas):
        raise ValueError(f"{name} must lie in [0, 1], got {gammas!r}")
    if any(a > b for a, b in zip(gammas, gammas[1:])):
        raise ValueError(f"{name} must be sorted ascending, got {gammas!r}")
    return gammas


def _uniform_overlap_grams(n: int, gammas: Sequence[float], name: str = "gamma") -> np.ndarray:
    """uniform_overlap_gram of each gamma, as one (k, n, n) stack, over the
    grid _gamma_grid checks under `name`."""
    column = np.array(_gamma_grid(gammas, name), dtype=float)[:, None, None]
    if n < 2:
        raise ValueError("need at least 2 detector states")
    return (1.0 - column) * np.eye(n) + column * np.ones((n, n))


def symmetric_detectors(n: int, gamma: float) -> DetectorSet:
    """Deterministic n-state detector set with all pairwise overlaps gamma."""
    return DetectorSet(gram_factor_vectors(uniform_overlap_gram(n, gamma)))
