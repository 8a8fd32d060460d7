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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _partial_trace_pure, gram_factor_vectors, validate_density
from .measures import coherence_normalized, distinguishability_pure
from .states import DetectorSet, MixedQuanton, PureQuanton, _check_composite

DEFAULT_GRID_POINTS = 4096
MIN_GRID_POINTS = 256
FLAT_PATTERN_TOL = 1e-12


@dataclass(frozen=True)
class FringeScan:
    """Sampled intensity pattern with exact extrema and visibility."""

    phases: np.ndarray
    intensities: np.ndarray
    i_max: float
    i_min: float
    visibility: float

    def to_csv(self, path_or_file, header_comment: str | None = None) -> None:
        """Write theta, intensity rows; floats carry 17 significant digits."""
        if hasattr(path_or_file, "write"):
            self._write_csv(path_or_file, header_comment)
        else:
            with open(path_or_file, "w", encoding="utf-8", newline="") as fh:
                self._write_csv(fh, header_comment)

    def _write_csv(self, fh, header_comment) -> None:
        if header_comment is not None:
            fh.write(f"# {header_comment}\n")
        fh.write("theta,intensity\n")
        for theta, value in zip(self.phases, self.intensities):
            fh.write(f"{theta:.17g},{value:.17g}\n")


def intensity(rho_reduced: MixedQuanton, theta: float) -> float:
    """Pattern value at one phase; real, clamped at zero against dust."""
    rho = rho_reduced.rho.matrix
    k = np.arange(rho.shape[0])
    v = np.exp(1j * k * theta)
    value = float(np.real(v @ rho @ v.conj()))
    if value < -FLAT_PATTERN_TOL:
        raise ValueError(f"intensity {value!r} is negative beyond numerical dust")
    return max(value, 0.0)


def _intensity_grid(rho: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    k = np.arange(rho.shape[0])
    amp = np.exp(1j * np.outer(thetas, k))
    return np.clip(np.real(np.einsum("ti,ij,tj->t", amp, rho, amp.conj())), 0.0, None)


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
        raise ValueError(f"grid_points must be >= {MIN_GRID_POINTS}, got {grid_points}")
    thetas = np.linspace(0.0, 2.0 * math.pi, grid_points, endpoint=False)
    rho = rho_reduced.rho.matrix
    values = _intensity_grid(rho, thetas)
    orders = np.arange(rho.shape[0] - 1, -rho.shape[0], -1)
    coeffs = np.array([np.trace(rho, offset=-m) for m in orders])
    coeffs[np.abs(coeffs) < np.finfo(float).eps] = 0.0
    phases = np.append(np.angle(np.roots(orders * coeffs)), 0.0)
    extrema = [intensity(rho_reduced, theta) for theta in phases]
    i_max, i_min = max(extrema), min(extrema)
    spread = i_max - i_min
    visibility = 0.0 if spread < FLAT_PATTERN_TOL else spread / (i_max + i_min)
    return FringeScan(
        phases=thetas,
        intensities=values,
        i_max=i_max,
        i_min=i_min,
        visibility=visibility,
    )


def uniform_overlap_gram(n: int, gamma: float) -> np.ndarray:
    """Gram matrix with unit diagonal and every off-diagonal overlap gamma."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma!r}")
    if n < 2:
        raise ValueError("need at least 2 detector states")
    return (1.0 - gamma) * np.eye(n) + gamma * np.ones((n, n))


def symmetric_detectors(n: int, gamma: float) -> DetectorSet:
    """Deterministic n-state detector set with all pairwise overlaps gamma."""
    return DetectorSet(gram_factor_vectors(uniform_overlap_gram(n, gamma)))


def _equal_amplitude_quanton(n: int) -> PureQuanton:
    return PureQuanton(amplitudes=np.full(n, 1.0 / math.sqrt(n), dtype=complex))


def _reduced_from_pure(q: PureQuanton, d: DetectorSet) -> MixedQuanton:
    """The detector traced out of sum_i c_i (e_i tensor d_i), without the joint matrix."""
    _check_composite(q.n, d.dim)
    return MixedQuanton(rho=validate_density(_partial_trace_pure(q.amplitudes[:, None] * d.vectors)))


def _pure_fringe(q: PureQuanton, d: DetectorSet, grid_points: int = DEFAULT_GRID_POINTS):
    """(FringeScan, normalized l1 coherence, D_Q) of a pure quanton behind pure detectors."""
    reduced = _reduced_from_pure(q, d)
    return scan_visibility(reduced, grid_points), coherence_normalized(reduced.rho), distinguishability_pure(q, d)


@dataclass(frozen=True)
class TwoSlitReport:
    visibility: float
    coherence: float
    distinguishability: float
    residual_visibility_coherence: float
    residual_duality: float


@dataclass(frozen=True)
class ThreeSlitReport:
    gamma: float
    visibility: float
    coherence: float
    distinguishability: float
    residual_coherence_visibility: float
    residual_duality: float


def check_two_slit_relation(q: PureQuanton, d: DetectorSet) -> TwoSlitReport:
    """Scan the two-slit pattern and compare V against the coherence and
    the duality sum V + D_Q.

    Only the equal-amplitude case is covered; the closed forms V = C =
    |<d_1|d_2>| hold there.
    """
    if q.n != 2 or d.n != 2:
        raise ValueError("two-slit check needs exactly 2 paths")
    probs = q.probabilities()
    if abs(probs[0] - 0.5) > 1e-10:
        raise ValueError(f"two-slit check needs equal amplitudes, got probabilities {probs!r}")
    scan, coherence, dq = _pure_fringe(q, d)
    return TwoSlitReport(
        visibility=scan.visibility,
        coherence=coherence,
        distinguishability=dq,
        residual_visibility_coherence=abs(scan.visibility - coherence),
        residual_duality=abs(scan.visibility + dq - 1.0),
    )


def check_three_slit_relation(gamma: float) -> ThreeSlitReport:
    """Scan the symmetric three-slit pattern at uniform overlap gamma and
    compare against C = 2V / (3 - V) and D_Q + 2V / (3 - V) = 1."""
    scan, coherence, dq = _pure_fringe(_equal_amplitude_quanton(3), symmetric_detectors(3, gamma))
    mapped = 2.0 * scan.visibility / (3.0 - scan.visibility)
    return ThreeSlitReport(
        gamma=gamma,
        visibility=scan.visibility,
        coherence=coherence,
        distinguishability=dq,
        residual_coherence_visibility=abs(coherence - mapped),
        residual_duality=abs(dq + mapped - 1.0),
    )
