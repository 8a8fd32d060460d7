from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duality_lab import random as lab_random
from duality_lab.linalg import _density, validate_density
from duality_lab.measures import distinguishability_pure
from duality_lab.random import (
    _amplitudes,
    _bounded,
    _draw_shape,
    _draw_stack,
    _pcg64_states,
    _position,
    _resume,
    _trial_shapes,
    _unit_vectors,
    haar_unitary,
    random_density,
    random_density_matrix,
    random_detectors,
    random_mixed_detector,
    random_pure,
    stream,
    uniform_overlap_detectors,
)
from duality_lab.states import (
    MixedDetectorInteraction,
    PureQuanton,
    _branches,
    _check_branch_grams,
    _check_branch_weights,
    _check_detector_vectors,
    _check_normalized,
    _gram,
)


def test_random_pure_normalized():
    for seed in range(20):
        q = random_pure(5, seed)
        assert abs(np.sum(np.abs(q.amplitudes) ** 2) - 1.0) <= 1e-12


def test_random_pure_deterministic():
    a = random_pure(4, 123).amplitudes
    b = random_pure(4, 123).amplitudes
    np.testing.assert_array_equal(a, b)
    c = random_pure(4, 124).amplitudes
    assert np.max(np.abs(a - c)) > 1e-3


def _z(samples, expected):
    """The z-score of the mean of `samples` against `expected`, by their own standard error."""
    return (samples.mean() - expected) / (samples.std(ddof=1) / np.sqrt(len(samples)))


@pytest.mark.parametrize("n", [2, 4, 7])
def test_stacked_amplitudes_have_haar_moments(n):
    # each |c_i|^2 is Beta(1, n - 1) under the Haar measure: E|c_i|^2 = 1/n and
    # E|c_i|^4 = 2/(n(n + 1)); the amplitudes of 100 000 draws, as one stack
    probs = np.abs(_amplitudes(np.random.default_rng(71).standard_normal((100_000, 2, n)))) ** 2
    for i in range(n):
        assert abs(_z(probs[:, i], 1.0 / n)) <= 4, i
        assert abs(_z(probs[:, i] ** 2, 2.0 / (n * (n + 1)))) <= 4, i


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_stacked_haar_unitaries_have_haar_trace_moments(d):
    """E|tr U|^2 = 1 and E|tr U^2|^2 = min(2, d) under the Haar measure, over
    a stack of 4000 unitaries from _haar. Without its diagonal-phase fix the
    QR gauge biases the traces, and both fail by a wide margin."""
    u = lab_random._haar(lab_random._complex(np.random.default_rng([81, d]).standard_normal((4000, 2, d, d))))
    assert abs(_z(np.abs(np.trace(u, axis1=-2, axis2=-1)) ** 2, 1.0)) <= 4
    assert abs(_z(np.abs(np.trace(u @ u, axis1=-2, axis2=-1)) ** 2, min(2, d))) <= 4


@pytest.mark.parametrize("d", [3, 6])
def test_stacked_ginibre_states_have_induced_purity(d):
    """E Tr rho^2 = (d + r)/(d r + 1) for Ginibre states of rank r (the induced
    measure of Zyczkowski and Sommers), over one _form_per_rank stack of 4000
    states at each of the ranks 2 and d, mixed as a campaign mixes them; the
    4000 rank-1 states in it are pure."""
    rng = np.random.default_rng([82, d])
    ranks = rng.permutation(np.repeat([1, 2, d], 4000))
    states = lab_random._form_per_rank(rng.standard_normal((len(ranks), 2 * d * d)), ranks.tolist(), d)
    purity = (np.abs(states) ** 2).sum(axis=(-2, -1))
    assert np.abs(purity[ranks == 1] - 1.0).max() <= 1e-14
    for r in (2, d):
        assert abs(_z(purity[ranks == r], (d + r) / (d * r + 1))) <= 4, r


@pytest.mark.parametrize("dim, rank", [(1, 1), (2, 1), (2, 2), (3, 2), (6, 6)])
def test_stacked_isometries_have_haar_moments(dim, rank):
    """Each entry q of a Haar dim x r isometry is a component of a Haar unit
    vector, so E|q|^2 = 1/dim, and its phase is uniform, so E q = E q^2 = 0
    (at dim = 1, q is a uniform phase). Two paths' isometries are
    independent, so E|<q|q'>|^2 = 1/dim for a column of each. Over a stack
    of 4000 draws of 3 paths from _detector_branches. Isometries built from
    the real Gaussians alone read E q^2 = 1/dim, and a QR without its gauge
    fix E q_11 < 0."""
    raw = np.random.default_rng([84, dim, rank]).standard_normal((4000, 4, dim, rank, 2))
    _, q = lab_random._detector_branches(raw)
    assert q.shape == (4000, 3, dim, rank)
    for a, k in np.ndindex(dim, rank):
        entry = q[:, :, a, k].ravel()
        for moment in (entry, entry ** 2):
            assert abs(_z(moment.real, 0.0)) <= 4 and abs(_z(moment.imag, 0.0)) <= 4, (a, k)
        if dim > 1:
            assert abs(_z(np.abs(entry) ** 2, 1.0 / dim)) <= 4, (a, k)
    overlaps = np.abs(np.einsum("sak,sal->skl", q[:, 0].conj(), q[:, 1])) ** 2
    if dim == 1:
        assert np.abs(overlaps - 1.0).max() <= 1e-14
    else:
        for k, m in np.ndindex(rank, rank):
            assert abs(_z(overlaps[:, k, m], 1.0 / dim)) <= 4, (k, m)


@pytest.mark.parametrize("dim, rank", [(1, 1), (3, 1), (3, 2), (3, 3), (6, 3), (6, 6)])
def test_stacked_branch_weights_have_induced_purity(dim, rank):
    """A rank-r detector state's branch weights are the spectrum of a Ginibre
    state of rank r: they sum to one and E sum_k w_k^2 = (dim + r)/(dim r + 1)
    (Zyczkowski and Sommers), over a stack of 4000 draws from
    _detector_branches; at rank 1 the one weight is 1. Unsquared singular
    values fail it at every rank above 1."""
    raw = np.random.default_rng([85, dim, rank]).standard_normal((4000, 2, dim, rank, 2))
    weights, _ = lab_random._detector_branches(raw)
    assert weights.shape == (4000, rank) and np.abs(weights.sum(axis=-1) - 1.0).max() <= 1e-14
    assert (np.diff(weights, axis=-1) <= 0.0).all()  # descending, as states._branches orders them
    purity = (weights ** 2).sum(axis=-1)
    if rank == 1:
        assert (weights == 1.0).all()
    else:
        assert abs(_z(purity, (dim + rank) / (dim * rank + 1))) <= 4


@pytest.mark.parametrize("dim", [2, 3, 8])
def test_stacked_detector_vectors_have_haar_moments(dim):
    """E|v_a|^2 = 1/dim and E|v_a|^4 = 2/(dim(dim + 1)) for each component of a
    Haar-random unit vector, over a stack of 4000 draws of 4 vectors from
    _unit_vectors. Real Gaussians alone would give E|v_a|^4 = 3/(dim(dim + 2))."""
    vecs = _unit_vectors(np.random.default_rng([83, dim]).standard_normal((4000, 2, 4, dim)))
    probs = (np.abs(vecs) ** 2).reshape(-1, dim)
    for a in range(dim):
        assert abs(_z(probs[:, a], 1.0 / dim)) <= 4, a
        assert abs(_z(probs[:, a] ** 2, 2.0 / (dim * (dim + 1)))) <= 4, a


def test_random_density_rank_one_is_pure():
    q = random_density(4, 1, 72)
    assert abs(q.rho.purity() - 1.0) <= 1e-10


def test_random_density_full_rank_purity_statistics():
    # Ginibre mean purity is 2n/(n^2+1), i.e. of order 1/n
    n, draws = 16, 1000
    rng = np.random.default_rng(73)
    purities = [random_density(n, n, rng).rho.purity() for _ in range(draws)]
    assert 1.0 / n < np.mean(purities) < 4.0 / n


def test_random_density_always_validates():
    rng = np.random.default_rng(74)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        q = random_density(n, int(rng.integers(1, n + 1)), rng)
        validate_density(q.rho.matrix)


@pytest.mark.parametrize("dim", range(1, 17))
def test_drawn_states_pass_the_checks_they_skip(dim):
    """random_density_matrix builds its state with no Hermiticity, trace or PSD
    test and no clamp, trusting that a Ginibre product is a state. linalg._density is the
    oracle: at every rank it accepts G G^dag / Tr(G G^dag) from the same
    Gaussians, and its checked, clamped state is the drawn one to rounding."""
    for rank in range(1, dim + 1):
        for i in range(40):
            seed = [6100, dim, rank, i]
            state = random_density_matrix(dim, rank, np.random.default_rng(seed)).matrix
            raw = np.random.default_rng(seed).standard_normal((2, dim, rank))
            g = raw[0] + 1j * raw[1]
            product = g @ g.conj().T
            assert np.abs(state - _density(product / np.trace(product).real)).max() <= 1e-15
            assert (state == state.conj().T).all()
            assert abs(state.trace() - 1.0) <= 1e-15
            assert np.linalg.eigvalsh(state)[0] >= -1e-15


def _isometry_deviation(kets):
    """How far a stack's path kets (..., branch, path, dim) are from the
    columns of one isometry per path, padded with zero columns: each path's
    Gram over the branches against the 0/1 diagonal of its rounded norms."""
    per_path = np.moveaxis(kets, -2, -3)
    gram = per_path.conj() @ per_path.swapaxes(-1, -2)
    norms = np.round(gram.diagonal(axis1=-2, axis2=-1).real)
    return np.abs(gram - norms[..., None] * np.eye(gram.shape[-1])).max()


def _gram_deviation(grams):
    """How far a stack of Grams is from Hermitian with unit diagonal."""
    return max(np.abs(grams - grams.conj().swapaxes(-1, -2)).max(),
               np.abs(grams.diagonal(axis1=-2, axis2=-1) - 1.0).max())


def _weighted_grams(kets, weights):
    """The Grams of the branches that carry weight, those branch_overlaps keeps."""
    return _gram(kets)[weights > 0.0]


# each kind of array _draw_stack returns: the constructor check a campaign
# skips on it, and its worst deviation from what that check asks. The path
# kets are given with their weights: BranchOverlaps checks the Grams of the
# weighted branches, and the kets are also held to the columns of isometries
_SKIPPED_CHECKS = {
    "amplitudes": (_check_normalized, lambda a: np.abs(np.sum(np.abs(a) ** 2, axis=-1) - 1.0).max()),
    "vectors": (_check_detector_vectors, lambda v: np.abs(np.linalg.norm(v, axis=-1) - 1.0).max()),
    "state": (_density, lambda rho: np.abs(_density(rho) - rho).max()),
    "weights": (_check_branch_weights, lambda w: np.abs(w.sum(axis=-1) - 1.0).max()),
    "kets": (lambda kets, weights: _check_branch_grams(_weighted_grams(kets, weights)),
             lambda kets, weights: max(_isometry_deviation(kets), _gram_deviation(_weighted_grams(kets, weights)))),
}
_DRAWN_KINDS = {"pure_pure": ("amplitudes", "vectors"), "mixed_pure": ("state", "vectors"),
                "mixed_mixed": ("state", "weights", "kets")}


@pytest.mark.parametrize("scenario", sorted(_DRAWN_KINDS))
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_drawn_arrays_pass_the_checks_a_campaign_skips(scenario, data):
    """A campaign checks its drawn arrays only for NaN or Inf, trusting the
    draws to build unit amplitudes and vectors, states, branch weights that
    sum to one and the orthonormal columns of isometries. Every array a
    stack draws passes the per-object check it skips, 1000 times inside that
    check's tolerance of 1e-10."""
    n = data.draw(st.integers(2, 6 if scenario == "mixed_mixed" else 8), label="n")
    detector_dim = data.draw(st.sampled_from([1, n, 2 * n, None]), label="detector_dim")
    rank = None if scenario == "pure_pure" else data.draw(st.sampled_from([None, 1, n]), label="rank")
    seed = data.draw(st.integers(0, 2**64), label="seed")
    shapes = list(_trial_shapes(seed, 8, (n,), detector_dim))
    group = shapes[0][0]
    arrays = _draw_stack(scenario, *group, rank, stream(seed, 0),
                         [position for shape, position in shapes if shape == group])
    drawn = dict(zip(_DRAWN_KINDS[scenario], arrays, strict=True))
    for kind, array in drawn.items():
        check, deviation = _SKIPPED_CHECKS[kind]
        given = (array, drawn["weights"]) if kind == "kets" else (array,)
        check(*given)
        assert deviation(*given) <= 1e-13, kind


def _zero_weight_state(dim):
    """A diagonal detector state whose last spectral weight is exactly zero."""
    weights = np.linspace(2.0, 1.0, dim)
    weights[-1] = 0.0
    return validate_density(np.diag(weights / weights.sum()))


def _near_parallel_unitaries(n, dim, rng):
    """Path unitaries that differ by about 1e-7, so every branch Gram is all
    but the all-ones matrix and nearly singular."""
    base = haar_unitary(dim, rng)
    nudges = [lab_random._haar(np.eye(dim) + 1e-7 * lab_random._complex(rng.standard_normal((2, dim, dim))))
              for _ in range(n)]
    return np.stack([base @ u for u in nudges])


def _haar_unitaries(n, dim, rng):
    return np.stack([haar_unitary(dim, rng) for _ in range(n)])


# interactions the constructor accepts, by how their detector state and unitaries are built
_INTERACTIONS = {
    "random_mixed_detector": lambda n, dim, rng: random_mixed_detector(n, dim, rng),
    "ginibre": lambda n, dim, rng: MixedDetectorInteraction(
        random_density_matrix(dim, int(rng.integers(1, dim + 1)), rng), _haar_unitaries(n, dim, rng)),
    "rank_one": lambda n, dim, rng: MixedDetectorInteraction(random_density_matrix(dim, 1, rng),
                                                             _haar_unitaries(n, dim, rng)),
    "zero_weight": lambda n, dim, rng: MixedDetectorInteraction(_zero_weight_state(dim + 1),
                                                                _haar_unitaries(n, dim + 1, rng)),
    "near_parallel": lambda n, dim, rng: MixedDetectorInteraction(
        random_density_matrix(dim, int(rng.integers(1, dim + 1)), rng), _near_parallel_unitaries(n, dim, rng)),
}


@settings(derandomize=True, max_examples=200, deadline=None)
@given(kind=st.sampled_from(sorted(_INTERACTIONS)), n=st.integers(2, 6), dim=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1))
def test_interaction_branches_pass_the_checks_the_kernel_skips(kind, n, dim, seed):
    """The mixed_mixed kernel uses an interaction's spectral branches
    (states._branches) unchecked, as it uses a campaign's drawn ones. For
    interactions the constructor accepts, the weighted branches pass
    BranchOverlaps' weight and Gram checks, 1000 times inside their
    tolerance of 1e-10."""
    weights, kets = _branches(_INTERACTIONS[kind](n, dim, np.random.default_rng(seed)))
    _check_branch_weights(weights)
    grams = _weighted_grams(kets, weights)
    _check_branch_grams(grams)
    assert abs(weights.sum() - 1.0) <= 1e-13
    assert _gram_deviation(grams) <= 1e-13
    if kind in ("rank_one", "zero_weight"):
        assert len(grams) == (1 if kind == "rank_one" else len(weights) - 1)


def test_random_density_rank_out_of_range():
    with pytest.raises(ValueError, match="rank"):
        random_density(3, 4, 0)
    with pytest.raises(ValueError, match="rank"):
        random_density_matrix(3, 0, 0)


@pytest.mark.parametrize("call, message", [
    (lambda: random_pure(1, 0), "need at least 2 paths"),
    (lambda: random_density(1, 1, 0), "need at least 2 paths"),
    (lambda: haar_unitary(0, 0), "dimension must be >= 1"),
], ids=["pure-one-path", "density-one-path", "haar-dim-0"])
def test_draws_reject_sizes_below_their_minimum(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_haar_unitary_is_unitary():
    for dim in (1, 2, 5, 8):
        u = haar_unitary(dim, 75)
        assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) <= 1e-10


def test_haar_unitary_deterministic():
    np.testing.assert_array_equal(haar_unitary(3, 9), haar_unitary(3, 9))


def test_haar_unitary_first_moment():
    # |U_11|^2 has mean 1/dim under Haar
    dim, draws = 2, 20_000
    rng = np.random.default_rng(76)
    samples = np.empty(draws)
    for k in range(draws):
        samples[k] = abs(haar_unitary(dim, rng)[0, 0]) ** 2
    se = np.sqrt((dim - 1) / (dim * dim * (dim + 1)) / draws)
    assert abs(samples.mean() - 1.0 / dim) <= 3 * se


def test_uniform_overlap_orthonormal_at_zero():
    d = uniform_overlap_detectors(3, 0.0, 3, 77)
    np.testing.assert_allclose(d.gram, np.eye(3), atol=1e-10)


def test_uniform_overlap_identical_at_one():
    d = uniform_overlap_detectors(3, 1.0, 4, 78)
    np.testing.assert_allclose(np.abs(d.gram), np.ones((3, 3)), atol=1e-10)


def test_uniform_overlap_midpoint():
    d = uniform_overlap_detectors(3, 0.5, 5, 79)
    off = d.gram[~np.eye(3, dtype=bool)]
    np.testing.assert_allclose(off, 0.5, atol=1e-10)


def test_uniform_overlap_rejects_small_dim():
    with pytest.raises(ValueError, match="dimension"):
        uniform_overlap_detectors(3, 0.5, 2, 0)


def test_uniform_overlap_rejects_bad_gamma():
    with pytest.raises(ValueError, match="gamma"):
        uniform_overlap_detectors(3, -0.2, 3, 0)


def test_uniform_overlap_two_path_idp():
    q = PureQuanton(amplitudes=np.array([1.0, 1.0]) / np.sqrt(2))
    for gamma in np.linspace(0, 1, 11):
        d = uniform_overlap_detectors(2, float(gamma), 2, 80)
        assert abs(distinguishability_pure(q, d) - (1.0 - gamma)) <= 1e-10


def test_random_detectors_normalized_and_deterministic():
    d1 = random_detectors(4, 6, 81)
    d2 = random_detectors(4, 6, 81)
    np.testing.assert_array_equal(d1.vectors, d2.vectors)
    np.testing.assert_allclose(np.linalg.norm(d1.vectors, axis=1), np.ones(4), atol=1e-12)


def test_stream_splitting():
    a = stream(42, 0).standard_normal(4)
    b = stream(42, 1).standard_normal(4)
    a2 = stream(42, 0).standard_normal(4)
    np.testing.assert_array_equal(a, a2)
    assert np.max(np.abs(a - b)) > 1e-6


def _spawned_state(seed, k):
    return np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(k,))).state


STATE_SEEDS = [0, 102, 2**40 + 7, 2**130 + 3]
STATE_KEYS = [*range(0, 2000, 7), 2**32 - 1]


@pytest.mark.parametrize("seed", STATE_SEEDS)
def test_derived_states_equal_spawned_pcg64_states(seed):
    states = _pcg64_states(seed, np.array(STATE_KEYS, dtype=np.uint32))
    for k, (state, inc) in zip(STATE_KEYS, states):
        assert _spawned_state(seed, k)["state"] == {"state": state, "inc": inc}, k


# r = 0 draws nothing; just above 2^31 about half of the 32-bit words are rejected
RANGES = (st.sampled_from([0, 1, 2**32 - 2, 2**32 - 1]) | st.integers(2, 64)
          | st.integers(2**31, 2**31 + 2**12) | st.integers(0, 2**32 - 1))


# derandomized, so every numpy that CI runs is tested on the same inputs
@settings(max_examples=400, derandomize=True, deadline=None)
@given(RANGES, st.integers(-2**40, 2**40), st.integers(0, 2**128 - 1), st.integers(0, 2**127 - 1),
       st.integers(0, 1), st.integers(0, 2**32 - 1))
def test_bounded_draw_equals_generator_integers(r, off, state, half_inc, has_uint32, uinteger):
    """_bounded is Generator.integers(off, off + r, endpoint=True) less off, and
    leaves the generator where integers leaves it, its 32-bit buffer included."""
    inc = 2 * half_inc + 1
    rng = np.random.default_rng(0)
    _resume(rng, (state, inc, has_uint32, uinteger))
    value = int(rng.integers(off, off + r, endpoint=True))
    assert _bounded(r, (state, inc, has_uint32, uinteger)) == (value - off, _position(rng))


OUT_OF_RANGE = """
from duality_lab.random import _bounded
for r in (-1, 2**32, 2**40):
    try:
        _bounded(r, (1, 1, 0, 0))
    except ValueError as exc:
        print(exc)
"""


def test_bounded_draw_rejects_ranges_it_cannot_draw(child_python):
    """At r >= 2^32 Lemire's threshold is >= 2^32 and no word is ever accepted,
    so the draws run in a child process, which the fixture's timeout ends."""
    run = child_python("-c", OUT_OF_RANGE)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.splitlines() == [f"a bounded draw's range must lie in 0..2^32 - 1, got {r}"
                                       for r in (-1, 2**32, 2**40)]


def test_bounded_draw_rejects_a_negative_range_in_process():
    """Without the range check r = -1 divides by r + 1 = 0 rather than loop,
    so it runs here; the ranges that would loop run in the child above."""
    with pytest.raises(ValueError, match=r"^a bounded draw's range must lie in 0\.\.2\^32 - 1, got -1$"):
        _bounded(-1, (0, 1, 0, 0))


def _fresh_shape(seed, k, n_choices, detector_dim):
    """The shape draws of a fresh stream(seed, k) and its position after them."""
    rng = stream(seed, k)
    return _draw_shape(rng, n_choices, detector_dim), _position(rng)


@pytest.mark.parametrize("seed", STATE_SEEDS)
@pytest.mark.parametrize("n_choices, detector_dim", [((2, 3, 5), None), ((4,), None), ((2, 8), 3)],
                         ids=["drawn_dim", "one_n", "given_dim"])
def test_trial_shapes_replay_each_fresh_stream(monkeypatch, seed, n_choices, detector_dim):
    """Each trial starts in stream(seed, k)'s state, its 32-bit buffer
    emptied, across blocks of derived states."""
    monkeypatch.setattr(lab_random, "_STATES_PER_BLOCK", 7)
    expected = [_fresh_shape(seed, k, n_choices, detector_dim) for k in range(30)]
    assert list(_trial_shapes(seed, 30, n_choices, detector_dim)) == expected


def test_trial_shapes_cross_a_full_block_of_derived_states():
    seed, trials = 2**130 + 3, lab_random._STATES_PER_BLOCK + 2
    expected = [_fresh_shape(seed, k, (2, 3), None) for k in range(trials)]
    assert list(_trial_shapes(seed, trials, (2, 3), None)) == expected


# path counts up to 2^31, where the dimension draw rejects about half of its 32-bit words
@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(0, 2**160), st.integers(1, 12),
       st.lists(st.integers(2, 9) | st.integers(2**31 - 2**12, 2**31) | st.just(2**31), min_size=1, max_size=4),
       st.none() | st.integers(1, 12))
def test_trial_shapes_equal_fresh_streams_on_any_seed(seed, trials, n_choices, detector_dim):
    n_choices = tuple(n_choices)
    shapes = list(_trial_shapes(seed, trials, n_choices, detector_dim))
    assert shapes == [_fresh_shape(seed, k, n_choices, detector_dim) for k in range(trials)]
    # a mixed trial's quanton rank, which its stack draws next from that position
    for k, ((n, _), position) in enumerate(shapes):
        rng = stream(seed, k)
        _draw_shape(rng, n_choices, detector_dim)
        rank = int(rng.integers(1, n, endpoint=True))
        assert _bounded(n - 1, position) == (rank - 1, _position(rng)), k


def test_trial_shapes_of_no_trials_draw_nothing():
    assert list(_trial_shapes(5, 0, (2,), None)) == []


@pytest.mark.parametrize("n", range(2, 17))
def test_stacked_ginibre_states_equal_per_state_products(n):
    """A mixed stack's quanton states, their ranks drawn by the stack and
    formed per rank over it, are random_density_matrix's products one trial
    at a time, bit for bit, at every rank and in a stack that mixes the
    ranks."""
    positions = [_position(stream(n, k)) for k in range(10 * n)]
    rho, _ = _draw_stack("mixed_pure", n, 3, None, np.random.default_rng(0), positions)
    ranks = Counter()
    for position, state in zip(positions, rho):
        rng = np.random.default_rng(0)
        _resume(rng, position)
        rank = int(rng.integers(1, n, endpoint=True))
        ranks[rank] += 1
        assert (state == random_density_matrix(n, rank, rng).matrix).all(), rank
    assert min(ranks[rank] for rank in range(1, n + 1)) >= 2


@pytest.mark.parametrize("dim", range(1, 17))
def test_stacked_detector_states_equal_the_public_generator(dim):
    """A mixed_mixed stack's detector branches, formed per rank over the
    stack, are those that the kernel takes from random_mixed_detector's
    interaction on each trial's generator (states._branches), bit for bit,
    at every detector rank, in a stack that mixes the ranks: the weights,
    and the path kets of the weighted branches. The stack's kets past a
    trial's rank are zeros, where the interaction's are the columns that
    complete its isometries to unitaries."""
    positions = [_position(stream(dim, k)) for k in range(10 * dim + 10)]
    _, weights, kets = _draw_stack("mixed_mixed", 2, dim, None, np.random.default_rng(0), positions)
    quanton_ranks, ranks = Counter(), Counter()
    for position, drawn_weights, drawn_kets in zip(positions, weights, kets):
        rng = np.random.default_rng(0)
        _resume(rng, position)
        quanton_rank = int(rng.integers(1, 2, endpoint=True))
        quanton_ranks[quanton_rank] += 1
        random_density(2, quanton_rank, rng)
        after_quanton = _position(rng)
        rank = int(rng.integers(1, dim, endpoint=True))
        ranks[rank] += 1
        _resume(rng, after_quanton)
        interaction = random_mixed_detector(2, dim, rng)
        # each isometry's completion is unitary far inside the constructor's check
        us = interaction.unitaries
        assert np.abs(us.conj().swapaxes(-1, -2) @ us - np.eye(dim)).max() <= 1e-13
        expected_weights, expected_kets = _branches(interaction)
        assert (drawn_weights == expected_weights).all() and (drawn_weights[rank:] == 0).all()
        assert (drawn_kets[:rank] == expected_kets[:rank]).all() and (drawn_kets[rank:] == 0).all()
    assert min(quanton_ranks[1], quanton_ranks[2], *(ranks[rank] for rank in range(1, dim + 1))) >= 2


def test_campaign_detector_state_ranks_are_uniform_over_one_to_dim():
    """The ranks of one mixed_mixed campaign's detector states, as
    random._stacks draws them, counted as their nonzero branch weights,
    against uniform over 1..dim: a chi-square test at p = 0.001, whose
    critical value for 3 degrees of freedom is 16.27."""
    dim, trials = 4, 4000
    ranks = np.concatenate([np.count_nonzero(weights, axis=-1)
                            for _, (_, weights, _) in lab_random._stacks("mixed_mixed", 91, trials, (2, 3), dim, None)])
    counts = np.bincount(ranks, minlength=dim + 1)
    assert len(counts) == dim + 1 and counts[0] == 0, counts
    assert ((counts[1:] - trials / dim) ** 2 / (trials / dim)).sum() <= 16.27, counts


# chi-square critical values at p = 0.001, by degrees of freedom
CHI2_CRITICAL = {19: 43.82, 24: 51.18, 34: 65.25, 41: 74.74}


def _chi2(counts, expected):
    return sum((counts[cell] - mean) ** 2 / mean for cell, mean in expected.items())


@pytest.mark.parametrize("scenario, n_choices, seed", [("pure_pure", tuple(range(2, 9)), 92),
                                                      ("mixed_pure", tuple(range(2, 9)), 93),
                                                      ("mixed_mixed", tuple(range(2, 7)), 94)])
def test_campaign_shapes_and_quanton_ranks_are_uniform(scenario, n_choices, seed):
    """Over one seeded 10^4-trial campaign, the path counts are uniform over
    `n_choices`, the detector dimension uniform over n..2n given n, and a
    mixed trial's quanton rank uniform over 1..n given n: chi-square tests
    of the (n, dim) and (n, rank) counts at p = 0.001. The shapes are read
    from random._trial_shapes and the rank is the next draw from each
    trial's position (random._bounded), as _draw_stack draws it; no stack is
    drawn."""
    trials = 10_000
    shapes, quanton_ranks = Counter(), Counter()
    for (n, dim), position in _trial_shapes(seed, trials, n_choices, None):
        shapes[n, dim] += 1
        if scenario != "pure_pure":
            quanton_ranks[n, 1 + _bounded(n - 1, position)[0]] += 1
    share = trials / len(n_choices)
    cells = {(n, dim): share / (n + 1) for n in n_choices for dim in range(n, 2 * n + 1)}
    assert set(shapes) == set(cells)
    assert _chi2(shapes, cells) <= CHI2_CRITICAL[len(cells) - 1], shapes
    if scenario != "pure_pure":
        cells = {(n, rank): share / n for n in n_choices for rank in range(1, n + 1)}
        assert set(quanton_ranks) == set(cells)
        assert _chi2(quanton_ranks, cells) <= CHI2_CRITICAL[len(cells) - 1], quanton_ranks


@pytest.mark.parametrize("n", range(2, 33))
def test_stacked_amplitudes_equal_per_vector_normalization(n):
    """The stacked norm is np.linalg.norm's of each vector, bit for bit."""
    raw = np.random.default_rng(n).standard_normal((200, 2, n))
    expected = [z / np.linalg.norm(z) for z in raw[:, 0] + 1j * raw[:, 1]]
    assert (_amplitudes(raw) == expected).all()


@pytest.mark.parametrize("n, dim", [(2, 2), (3, 6), (8, 16), (8, 9), (20, 40)])
def test_stacked_detector_vectors_equal_per_set_normalization(n, dim):
    raw = np.random.default_rng(dim).standard_normal((100, 2, n, dim))
    expected = [vecs / np.linalg.norm(vecs, axis=1)[:, None] for vecs in raw[:, 0] + 1j * raw[:, 1]]
    assert (_unit_vectors(raw) == expected).all()
