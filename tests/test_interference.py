import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from duality_lab import duality, interference
from duality_lab.cli import main
from duality_lab.duality import check_three_slit_relation, check_two_slit_relation
from duality_lab.interference import (
    FLAT_PATTERN_TOL,
    FringeScan,
    _diagonal_slots,
    _roots,
    _uniform_overlap_grams,
    intensity,
    scan_visibility,
    symmetric_detectors,
    uniform_overlap_gram,
)
from duality_lab.linalg import DensityMatrix, _gram_factors, gram_factor_vectors, validate_density
from duality_lab.random import random_detectors, uniform_overlap_detectors
from duality_lab.states import (
    DetectorSet,
    MixedQuanton,
    PureQuanton,
    _check_detector_vectors,
    _gram,
    entangle_pure,
    reduce_quanton,
)


def _equal_pure(n):
    return PureQuanton(amplitudes=np.full(n, 1.0 / math.sqrt(n), dtype=complex))


def _symmetric_reduced(n, gamma):
    gram = (1.0 - gamma) * np.eye(n) + gamma * np.ones((n, n))
    return MixedQuanton(rho=validate_density(gram / n))


def _einsum_grid(rho, thetas):
    """The complex-exponential pattern summed term by term, the oracle the
    inverse-DFT grid must lie within 4 eps log2(N) sum_ij |rho_ij| of."""
    amp = np.exp(1j * np.outer(thetas, np.arange(rho.shape[0])))
    return np.clip(np.real(np.einsum("ti,ij,tj->t", amp, rho, amp.conj())), 0.0, None)


def _grid_error(reduced, scan):
    return np.abs(scan.intensities - _einsum_grid(reduced.rho.matrix, scan.phases)).max()


def _grid_bound(reduced, grid_points):
    return 4 * np.finfo(float).eps * math.log2(grid_points) * np.abs(reduced.rho.matrix).sum()


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


def _ginibre_states(seed, ns, trials):
    """Derandomized Ginibre states of every rank at each n in `ns`, half of
    them with vanishing populations and so with zero entries."""
    rng = np.random.default_rng(seed)
    for n in ns:
        for trial in range(trials):
            rank = 1 + trial % n
            g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
            g[: trial % 2 * rng.integers(0, n)] = 0.0
            yield MixedQuanton(rho=validate_density(g @ g.conj().T / np.vdot(g, g).real))


def _per_phase_intensity(rho, theta):
    """One phase's intensity as the scan took it before its extrema were
    stacked: one vector-matrix-vector product, clamped at zero."""
    v = np.exp(1j * np.arange(rho.shape[0]) * theta)
    return max(float(np.real(v @ rho @ v.conj())), 0.0)


def test_intensity_of_phases_equals_the_per_phase_calls():
    """One stacked product gives, bit for bit, what one call per phase
    gives, and what one vector-matrix-vector product per phase gives, at
    n = 2..8, every rank, on complex states."""
    phases = np.concatenate([np.random.default_rng(67).uniform(-7.0, 7.0, 30), [0.0, -0.0, math.pi, -math.pi]])
    for reduced in _ginibre_states(71, range(2, 9), 16):
        stacked = intensity(reduced, phases)
        each = np.array([intensity(reduced, theta) for theta in phases])
        oracle = np.array([_per_phase_intensity(reduced.rho.matrix, theta) for theta in phases])
        assert stacked.shape == phases.shape
        assert stacked.tobytes() == each.tobytes() == oracle.tobytes()


def test_intensity_of_one_phase_is_a_float():
    reduced = _symmetric_reduced(3, 0.5)
    for theta in (0.25, np.float64(0.25), np.array(0.25)):
        assert type(intensity(reduced, theta)) is float
    assert intensity(reduced, 0.25) == intensity(reduced, np.array([0.25]))[0]


def test_scan_coefficients_equal_the_trace_loop():
    """The c_m of one gathered sum are the loop of rho.trace(offset=-m) bit
    for bit, compared as float views so that a zero's sign counts, on
    either side of numpy's blocks of four at n = 2..17."""
    for reduced in _ginibre_states(73, range(2, 18), 12):
        rho = reduced.rho.matrix
        orders = np.arange(rho.shape[0] - 1, -rho.shape[0], -1)
        loop = np.array([rho.trace(offset=-m) for m in orders])
        assert scan_visibility(reduced).coefficients.view(float).tobytes() == loop.view(float).tobytes()


def test_diagonal_slots_sum_as_the_trace_loop_with_signed_zeros():
    """Any complex matrix, its entries often +0 or -0, sums by the table as
    the trace loop does, bit for bit, up to the largest n the table holds
    to, 63."""
    rng = np.random.default_rng(79)
    for n in (*range(2, 18), 63):
        for _ in range(20):
            rho = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            rho *= rng.choice([0.0, -0.0, 1.0, -1.0], size=(n, n))
            loop = np.array([rho.trace(offset=-m) for m in range(n - 1, -n, -1)])
            gathered = np.append(rho, -0j)[_diagonal_slots(n)].sum(axis=1)
            assert gathered.view(float).tobytes() == loop.view(float).tobytes()


def test_scan_extrema_equal_the_per_phase_loop():
    """i_max, i_min and the visibility equal, bit for bit, those of a loop
    that evaluates the root phases and phase 0 one by one."""
    for reduced in _ginibre_states(83, range(2, 9), 16):
        rho = reduced.rho.matrix
        orders = np.arange(rho.shape[0] - 1, -rho.shape[0], -1)
        coeffs = np.array([rho.trace(offset=-m) for m in orders])
        kept = np.where(np.abs(coeffs) < np.finfo(float).eps, 0.0, coeffs)
        extrema = [_per_phase_intensity(rho, theta) for theta in np.append(np.angle(_roots(orders * kept)), 0.0)]
        i_max, i_min = max(extrema), min(extrema)
        visibility = 0.0 if i_max - i_min < FLAT_PATTERN_TOL else (i_max - i_min) / (i_max + i_min)
        scan = scan_visibility(reduced)
        assert np.array([scan.i_max, scan.i_min, scan.visibility]).tobytes() == \
            np.array([i_max, i_min, visibility]).tobytes()


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


def test_scan_rejects_large_grid():
    with pytest.raises(ValueError, match="<= 65536"):
        scan_visibility(_symmetric_reduced(2, 0.5), grid_points=2**16 + 1)


# ----------------------------------------------------------------- grid oracle

@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.sampled_from([256, 4096, 4099]), st.data())
def test_grid_equals_einsum_oracle(seed, n, grid_points, data):
    # Ginibre states of every rank, some with vanishing populations
    rng = np.random.default_rng(seed)
    rank = data.draw(st.integers(1, n))
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    g[: data.draw(st.integers(0, n - 1))] = 0.0
    reduced = MixedQuanton(rho=validate_density(g @ g.conj().T / np.vdot(g, g).real))
    scan = scan_visibility(reduced, grid_points)
    thetas = np.linspace(0.0, 2.0 * math.pi, grid_points, endpoint=False)
    assert np.array_equal(scan.phases, thetas)
    assert _grid_error(reduced, scan) <= _grid_bound(reduced, grid_points)


def test_grid_adds_orders_that_alias_on_a_small_grid():
    # 2n - 1 = 399 orders on 256 points: orders m and m - 256 share a bin
    rng = np.random.default_rng(63)
    g = rng.standard_normal((200, 200)) + 1j * rng.standard_normal((200, 200))
    reduced = MixedQuanton(rho=validate_density(g @ g.conj().T / np.vdot(g, g).real))
    scan = scan_visibility(reduced, 256)
    assert _grid_error(reduced, scan) <= _grid_bound(reduced, 256)


def test_scan_phases_are_the_callers_copy():
    reduced = _symmetric_reduced(2, 0.5)
    first = scan_visibility(reduced, 256)
    first.phases[:] = 7.0
    second = scan_visibility(reduced, 256)
    assert np.array_equal(second.phases, np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False))
    assert np.array_equal(second.intensities, first.intensities)


def test_scans_keep_no_memory_between_calls():
    states = [_symmetric_reduced(n, 0.5) for n in range(5, 9)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for reduced in states:
            # the grid is computed only when read, so read it before dropping the scan
            scan = scan_visibility(reduced, interference.MAX_GRID_POINTS)
            assert scan.intensities.shape == (interference.MAX_GRID_POINTS,)
            del scan
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 1 << 20


# ----------------------------------------------------------------- lazy grid

def _counted(monkeypatch, owner, name):
    """Replace owner.name with a wrapper that records each call; return the record."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("argv, scans, grids", [
    (["sweep", "--n", "2", "--gamma-range", "0:1:11"], 11, 0),
    (["sweep", "--n", "3", "--gamma-range", "0:1:11"], 11, 0),
    (["sweep", "--n", "3", "--scenario", "mixed_pure", "--seed", "3", "--gammas", "0,0.5,1"], 3, 0),
    (["verify", "--n", "3", "--gamma", "0.5"], 1, 0),
    (["fringe", "--n", "2", "--gamma", "0.6"], 1, 1),
])
def test_only_fringe_computes_the_grid(monkeypatch, capsys, argv, scans, grids):
    """Sweeps and verify read the visibility of every scan and never its
    grid, so they format no phase column and run no inverse DFT; fringe
    writes the grid, formats its phase column once from an empty cache and
    runs one inverse DFT. No command reads a scan's phase array."""
    interference._phase_cells.cache_clear()
    iffts = _counted(monkeypatch, interference.np.fft, "ifft")
    scan_calls = _counted(monkeypatch, duality, "scan_visibility")
    # a cached_property calls its func on the first read
    phase_grids = _counted(monkeypatch, FringeScan.__dict__["phases"], "func")
    assert main(argv) == 0, capsys.readouterr().err
    formatted = interference._phase_cells.cache_info().misses
    assert (len(scan_calls), formatted, len(iffts), len(phase_grids)) == (scans, grids, grids, 0)


def test_fringe_formats_its_phase_column_once_per_grid_size(monkeypatch, capsys):
    """The first fringe at a size formats the phase column and runs one
    inverse DFT; a second at that size formats nothing and runs one more;
    a fringe at another size formats its own column once."""
    interference._phase_cells.cache_clear()
    iffts = _counted(monkeypatch, interference.np.fft, "ifft")
    runs = (("4096", "0.6", 1), ("4096", "0.2", 1), ("256", "0.6", 2))
    for run, (grid_points, gamma, formatted) in enumerate(runs, start=1):
        assert main(["fringe", "--n", "3", "--gamma", gamma, "--grid-points", grid_points]) == 0
        assert (interference._phase_cells.cache_info().misses, len(iffts)) == (formatted, run)
    capsys.readouterr()


def test_grid_is_computed_once_on_first_read(monkeypatch):
    iffts = _counted(monkeypatch, interference.np.fft, "ifft")
    scan = scan_visibility(_symmetric_reduced(3, 0.5), 256)
    assert iffts == []
    first = scan.intensities
    assert scan.intensities is first
    assert len(iffts) == 1


# ------------------------------------------------------------ root finder

# zeros (leading, trailing, internal), subnormals and ordinary magnitudes
_COEFFICIENT = st.one_of(st.just(0.0), st.floats(-1e-308, 1e-308), st.floats(-1e3, 1e3))


def _roots_or_error(roots, p):
    try:
        return roots(p)
    except (np.linalg.LinAlgError, RuntimeWarning) as exc:  # a subnormal leading term overflows
        return type(exc), str(exc)


@settings(deadline=None, max_examples=400)
@given(st.lists(_COEFFICIENT, min_size=3, max_size=15).flatmap(
    lambda re: st.tuples(st.just(re), st.none() | st.lists(_COEFFICIENT, min_size=len(re), max_size=len(re)))))
@example(([0.0] * 3, None))
@example(([0.0] * 15, [0.0] * 15))
@example(([0.0, 0.0, 2.5, 0.0, 0.0], None))
@example(([0.0] * 7, [0.0, 0.0, 0.0, -1.5, 0.0, 0.0, 0.0]))
@example(([5e-324, 1.0, 0.0, 2.0], None))
@example(([0.0, 1.0, -3e-310, 0.0, 0.0], [0.0, 2e-320, 1.0, 0.0, 0.0]))
def test_roots_equal_np_roots_bit_for_bit(parts):
    """The scan's root finder is np.roots without its generic input handling:
    the same roots, dtype and bits, or the same error, for real and complex
    coefficient vectors. np.roots stays the oracle on every numpy."""
    re, im = parts
    p = np.array(re) if im is None else np.array(re) + 1j * np.array(im)
    ours, theirs = _roots_or_error(_roots, p.copy()), _roots_or_error(np.roots, p.copy())
    if isinstance(theirs, tuple):
        assert ours == theirs
    else:
        assert isinstance(ours, np.ndarray), ours
        assert (ours.dtype, ours.shape) == (theirs.dtype, theirs.shape)
        assert ours.tobytes() == theirs.tobytes()


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


@pytest.mark.parametrize("n", range(2, 9))
def test_stacked_uniform_overlap_family_equals_its_detector_sets(n):
    """The whole gamma family factored as one stack equals, with ==, the
    detector set built from each gamma's own Gram: vectors and Gram."""
    rng = np.random.default_rng(n)
    grids = [[0.0], [1.0], [0.0, 1.0], [0.0, 0.0, 0.5, 0.5, 1.0, 1.0],
             *(sorted([0.0, 1.0, *rng.random(int(rng.integers(1, 12))), 0.25, 0.25]) for _ in range(20))]
    for gammas in grids:
        grams = _uniform_overlap_grams(n, gammas)
        vectors = _gram_factors(grams)
        _check_detector_vectors(vectors)
        stacked_grams = _gram(vectors)
        for k, gamma in enumerate(gammas):
            assert (grams[k] == uniform_overlap_gram(n, gamma)).all()
            d = DetectorSet(gram_factor_vectors(uniform_overlap_gram(n, gamma)))
            assert (vectors[k] == d.vectors).all() and (stacked_grams[k] == d.gram).all(), (gammas, k)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n=st.integers(2, 12), gammas=st.lists(st.floats(0.0, 1.0), max_size=10))
def test_factored_sweep_vectors_pass_the_checks_a_sweep_skips(n, gammas):
    """A sweep trusts its factored vectors to be unit vectors: at gamma 0, 0.5
    and 1 and on any grid they pass DetectorSet's checks, each norm within
    1e-13 of one, 1000 times inside the checks' tolerance of 1e-10."""
    vectors = _gram_factors(_uniform_overlap_grams(n, sorted([0.0, 0.5, 1.0, *gammas])))
    _check_detector_vectors(vectors)
    assert np.abs(np.linalg.norm(vectors, axis=-1) - 1.0).max() <= 1e-13


def test_intensity_rejects_a_pattern_below_zero():
    """validate_density never passes such a matrix; a DensityMatrix built
    around one directly gives a negative intensity, which intensity rejects."""
    rho = MixedQuanton(rho=DensityMatrix(np.array([[0.5, -1.0], [-1.0, 0.5]], dtype=complex)))
    with pytest.raises(ValueError, match="^intensity -1.0 is negative beyond numerical dust$"):
        intensity(rho, 0.0)
    # I = 1 - 2 cos(theta): -0.41 at pi/4 comes first, and the message names
    # the most negative value, -1.0 at phase 0
    with pytest.raises(ValueError, match="^intensity -1.0 is negative beyond numerical dust$"):
        intensity(rho, np.array([math.pi, math.pi / 4, 0.0, math.pi / 4]))


def test_stacked_uniform_overlap_grams_check_every_gamma():
    with pytest.raises(ValueError, match=r"gamma must lie in \[0, 1\], got \[0.0, 0.5, 1.5\]"):
        _uniform_overlap_grams(3, [0.0, 0.5, 1.5])
    with pytest.raises(ValueError, match="need at least 2 detector states"):
        _uniform_overlap_grams(1, [0.5])
