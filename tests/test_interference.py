import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duality_lab.interference import (
    FLAT_PATTERN_TOL,
    FringeScan,
    check_three_slit_relation,
    check_two_slit_relation,
    intensity,
    scan_visibility,
    symmetric_detectors,
)
from duality_lab.linalg import validate_density
from duality_lab.random import random_detectors, uniform_overlap_detectors
from duality_lab.states import MixedQuanton, PureQuanton, entangle_pure, reduce_quanton


def _equal_pure(n):
    return PureQuanton(amplitudes=np.full(n, 1.0 / math.sqrt(n), dtype=complex))


def _symmetric_reduced(n, gamma):
    gram = (1.0 - gamma) * np.eye(n) + gamma * np.ones((n, n))
    return MixedQuanton(rho=validate_density(gram / n))


# ----------------------------------------------------------------- intensity

def test_intensity_two_path_cosine():
    gamma = 0.7
    reduced = _symmetric_reduced(2, gamma)
    for theta in np.linspace(0, 2 * math.pi, 17):
        expect = 1.0 + gamma * math.cos(theta)
        assert abs(intensity(reduced, theta) - expect) <= 1e-12


def test_intensity_diagonal_is_flat():
    reduced = MixedQuanton(rho=validate_density(np.diag([0.4, 0.6])))
    for theta in np.linspace(0, 2 * math.pi, 9):
        assert abs(intensity(reduced, theta) - 1.0) <= 1e-12


def test_intensity_three_path_formula():
    gamma = 0.5
    reduced = _symmetric_reduced(3, gamma)
    for theta in np.linspace(0, 2 * math.pi, 17):
        expect = 1.0 + (2 * gamma / 3) * (2 * math.cos(theta) + math.cos(2 * theta))
        assert abs(intensity(reduced, theta) - expect) <= 1e-12


def test_intensity_mean_is_unity():
    rng = np.random.default_rng(61)
    for n in (2, 3, 5):
        q = PureQuanton(amplitudes=(lambda a: a / np.linalg.norm(a))(
            rng.standard_normal(n) + 1j * rng.standard_normal(n)))
        d = random_detectors(n, n + 1, rng)
        psi = entangle_pure(q, d)
        reduced = reduce_quanton(np.outer(psi, psi.conj()), n, n + 1)
        thetas = np.linspace(0.0, 2 * math.pi, 1024, endpoint=False)
        mean = np.mean([intensity(reduced, t) for t in thetas])
        assert abs(mean - 1.0) <= 1e-10


# ------------------------------------------------------------ scan_visibility

def test_scan_two_path_visibility():
    scan = scan_visibility(_symmetric_reduced(2, 0.6))
    assert abs(scan.visibility - 0.6) <= 1e-9
    assert abs(scan.i_max - 1.6) <= 1e-9
    assert abs(scan.i_min - 0.4) <= 1e-9


def test_scan_flat_pattern_zero_visibility():
    scan = scan_visibility(MixedQuanton(rho=validate_density(np.diag([0.3, 0.7]))))
    assert scan.visibility == 0.0
    assert scan.i_max == scan.i_min


def test_scan_three_path_closed_form():
    for gamma in (1e-13, 0.1, 0.5, 0.9, 1 - 1e-13, 1.0):
        scan = scan_visibility(_symmetric_reduced(3, gamma))
        # the flat-pattern rule still zeroes a spread 3 gamma below FLAT_PATTERN_TOL
        expect = 3 * gamma / (2 + gamma) if 3 * gamma >= FLAT_PATTERN_TOL else 0.0
        assert abs(scan.visibility - expect) <= 1e-14
        assert abs(scan.i_max - (1 + 2 * gamma)) <= 1e-14
        assert abs(scan.i_min - (1 - gamma)) <= 1e-14


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.data())
def test_scan_extrema_bound_the_pattern(seed, n, data):
    # Ginibre states of every rank, some with vanishing populations
    rng = np.random.default_rng(seed)
    rank = data.draw(st.integers(1, n))
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    g[: data.draw(st.integers(0, n - 1))] = 0.0
    reduced = MixedQuanton(rho=validate_density(g @ g.conj().T / np.vdot(g, g).real))
    scan = scan_visibility(reduced)
    assert scan.i_max >= scan.intensities.max() - 1e-14
    assert scan.i_min <= scan.intensities.min() + 1e-14
    fine = scan_visibility(reduced, 65536).intensities
    assert abs(scan.i_max - fine.max()) <= 1e-6
    assert abs(scan.i_min - fine.min()) <= 1e-6
    assert scan_visibility(reduced, 256).visibility == scan.visibility
    if n == 2:
        rho = reduced.rho.matrix
        expect = 2 * abs(rho[0, 1]) / (rho[0, 0] + rho[1, 1]).real
        assert abs(scan.visibility - expect) <= 1e-14


def test_scan_subnormal_far_corner():
    # a subnormal c_2 must neither reach the root finder nor change V
    rho = np.array([[0.5, 0.4, 0.0], [0.4, 0.5, 0.0], [0.0, 0.0, 0.0]], dtype=complex)
    plain = scan_visibility(MixedQuanton(rho=validate_density(rho)))
    rho[0, 2] = rho[2, 0] = 1e-310
    corner = scan_visibility(MixedQuanton(rho=validate_density(rho)))
    assert abs(corner.visibility - plain.visibility) <= 1e-15
    assert abs(plain.visibility - 0.8) <= 1e-15


def test_scan_rejects_small_grid():
    with pytest.raises(ValueError, match=">= 256"):
        scan_visibility(_symmetric_reduced(2, 0.5), grid_points=100)


def test_scan_visibility_matches_overlap_for_any_pair():
    # complex-phase overlaps shift the fringes but not the visibility
    rng = np.random.default_rng(62)
    q = _equal_pure(2)
    for _ in range(20):
        d = random_detectors(2, int(rng.integers(2, 5)), rng)
        psi = entangle_pure(q, d)
        reduced = reduce_quanton(np.outer(psi, psi.conj()), 2, d.dim)
        scan = scan_visibility(reduced)
        assert abs(scan.visibility - abs(d.gram[0, 1])) <= 1e-8


def test_scan_visibility_monotone_in_overlap():
    for n in (2, 3):
        values = [scan_visibility(_symmetric_reduced(n, g)).visibility
                  for g in np.linspace(0, 1, 11)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_fringe_scan_csv_roundtrip():
    scan = scan_visibility(_symmetric_reduced(2, 0.5), grid_points=256)
    buf = io.StringIO()
    scan.to_csv(buf, header_comment="demo")
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# demo"
    assert lines[1] == "theta,intensity"
    assert len(lines) == 2 + 256
    theta0, i0 = lines[2].split(",")
    assert float(theta0) == 0.0
    assert abs(float(i0) - 1.5) <= 1e-12


# ------------------------------------------------------------- two-slit check

def test_two_slit_endpoints():
    q = _equal_pure(2)
    r0 = check_two_slit_relation(q, symmetric_detectors(2, 0.0))
    assert abs(r0.visibility) <= 1e-10 and abs(r0.distinguishability - 1.0) <= 1e-10
    r1 = check_two_slit_relation(q, symmetric_detectors(2, 1.0))
    assert abs(r1.visibility - 1.0) <= 1e-10 and abs(r1.distinguishability) <= 1e-10


def test_two_slit_residuals_small():
    q = _equal_pure(2)
    report = check_two_slit_relation(q, uniform_overlap_detectors(2, 0.6, 2, 7))
    assert report.residual_visibility_coherence <= 1e-9
    assert report.residual_duality <= 1e-9
    assert abs(report.visibility - 0.6) <= 1e-9


def test_two_slit_rejects_unequal_amplitudes():
    q = PureQuanton(amplitudes=np.array([0.6, 0.8]))
    with pytest.raises(ValueError, match="equal amplitudes"):
        check_two_slit_relation(q, symmetric_detectors(2, 0.5))


def test_two_slit_rejects_wrong_path_count():
    q = _equal_pure(3)
    with pytest.raises(ValueError, match="2 paths"):
        check_two_slit_relation(q, symmetric_detectors(3, 0.5))


# ----------------------------------------------------------- three-slit check

def test_three_slit_endpoints():
    r0 = check_three_slit_relation(0.0)
    assert abs(r0.visibility) <= 1e-10
    assert abs(r0.coherence) <= 1e-10
    assert abs(r0.distinguishability - 1.0) <= 1e-10
    r1 = check_three_slit_relation(1.0)
    assert abs(r1.visibility - 1.0) <= 1e-10
    assert abs(r1.coherence - 1.0) <= 1e-10
    assert abs(r1.distinguishability) <= 1e-10


def test_three_slit_midpoint_closed_forms():
    report = check_three_slit_relation(0.5)
    assert abs(report.visibility - 0.6) <= 1e-9
    assert abs(report.coherence - 0.5) <= 1e-9
    assert abs(report.distinguishability - 0.5) <= 1e-9
    assert report.residual_coherence_visibility <= 1e-9
    assert report.residual_duality <= 1e-9


def test_three_slit_rejects_bad_gamma():
    with pytest.raises(ValueError, match="gamma"):
        check_three_slit_relation(1.5)


def test_symmetric_detectors_overlaps():
    d = symmetric_detectors(4, 0.3)
    off = d.gram[~np.eye(4, dtype=bool)]
    np.testing.assert_allclose(off, 0.3, atol=1e-10)
