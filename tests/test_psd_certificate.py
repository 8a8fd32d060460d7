"""The Cholesky certificate of positive definiteness against the eigvalsh-only checks it replaced.

`linalg._density` and `states._check_branch_grams` ask eigvalsh for the
lowest eigenvalue only where one batched Cholesky cannot certify a stack
(`linalg._lowest_eigenvalues`). `_density_oracle` and `_gram_check_oracle`
are the eigvalsh-only versions; the Gram oracle, like the check, runs
eigvalsh only on the Grams that pass the Hermiticity and unit-diagonal
tests. On adversarial stacks, whose
planted lowest eigenvalue sits on or next to every threshold (0, the clamp;
-DEFAULT_TOL, the PSD test; the certificate's margin), the new code must
return the same values (==) or raise the same exception class, message and
index. The campaigns must also pass no matrix to eigvalsh or eigh, so a
refactor that bypasses the certificate fails here.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duality_lab.duality import run_campaign
from duality_lab.linalg import (
    DEFAULT_TOL,
    NotHermitianError,
    NotPSDError,
    NotUnitTraceError,
    _density,
    _lowest_eigenvalues,
    _raise_first,
    dagger,
)
from duality_lab.states import _GRAM_FAULTS, _check_branch_grams

EPS = np.finfo(float).eps


def _density_oracle(m):
    """linalg._density with one eigvalsh over the whole stack, as it was."""
    _raise_first(~np.isfinite(m).all(axis=(-2, -1)), ValueError,
                 lambda i: "matrix contains NaN or Inf entries")
    adjoint = dagger(m)
    herm_dev = np.abs(m - adjoint).max(axis=(-2, -1))
    _raise_first(~(herm_dev <= DEFAULT_TOL), NotHermitianError,
                 lambda i: f"Hermiticity deviation {herm_dev[i]:.3e} exceeds {DEFAULT_TOL:.1e}")
    trace_dev = np.abs(m.trace(axis1=-2, axis2=-1) - 1.0)
    _raise_first(~(trace_dev <= DEFAULT_TOL), NotUnitTraceError,
                 lambda i: f"trace deviates from 1 by {trace_dev[i]:.3e}, over {DEFAULT_TOL:.1e}")
    h = (m + adjoint) / 2.0
    low = np.linalg.eigvalsh(h)[..., 0]
    _raise_first(~(low >= -DEFAULT_TOL), NotPSDError,
                 lambda i: f"minimum eigenvalue {low[i]:.3e} below -{DEFAULT_TOL:.1e}")
    negative = low < 0.0
    if negative.any():
        vals, vecs = np.linalg.eigh(h[negative])
        clamped = (vecs * np.clip(vals, 0.0, None)[..., None, :]) @ dagger(vecs)
        h[negative] = (clamped + dagger(clamped)) / 2.0
    return h / h.trace(axis1=-2, axis2=-1).real[..., None, None]


def _gram_check_oracle(grams):
    """states._check_branch_grams with one eigvalsh over the Grams that are
    Hermitian with unit diagonal; a Gram holding NaN fails the first test."""
    adjoint = dagger(grams)
    diagonal = grams.diagonal(axis1=-2, axis2=-1)
    fault = np.select([~(np.abs(grams - adjoint).max(axis=(-2, -1)) <= DEFAULT_TOL),
                       ~(np.abs(diagonal - 1.0).max(axis=-1) <= DEFAULT_TOL)], [1, 2])
    sane = fault == 0
    fault[sane] = np.where(np.linalg.eigvalsh((grams[sane] + adjoint[sane]) / 2)[..., 0] >= -DEFAULT_TOL, 0, 3)
    _raise_first(fault > 0, ValueError, lambda i: f"branch Gram {i[-1]} {_GRAM_FAULTS[fault[i]]}")


def _margin(n):
    return 8 * (n + 1) ** 2 * EPS


def _anchors(n):
    """Lowest eigenvalues to plant: on and next to 0, the certificate's
    margin above 0 and above -DEFAULT_TOL, and -DEFAULT_TOL itself."""
    magnitudes = (0.0, 1e-17, _margin(n), 2 * _margin(n), DEFAULT_TOL - _margin(n), DEFAULT_TOL,
                  DEFAULT_TOL + _margin(n), DEFAULT_TOL * (1 + 1e-6))
    return [sign * value for value in magnitudes for sign in (1, -1)]


def _planted_density(n, rank, low, rng):
    """Unit trace, its lowest eigenvalue `low` if rank < n: (1 - n low) sigma + low I
    for a random density matrix sigma of the given rank."""
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    sigma = g @ g.conj().T
    return (1 - n * low) * (sigma / sigma.trace().real) + low * np.eye(n)


def _planted_gram(n, rank, low, rng):
    """Unit diagonal, its lowest eigenvalue `low` if rank < n: (1 - low) C + low I
    for the Gram C of n unit vectors spanning `rank` dimensions. At rank 1 every
    overlap has modulus 1, so near-unit overlaps come with a small `low`."""
    v = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return (1 - low) * (v.conj() @ v.T) + low * np.eye(n)


@st.composite
def _stacks(draw, planted, healthy):
    """A stack of `planted` matrices, each entry healthy (certifiable) but one,
    which has a random rank and an anchor, give or take a few eps, as its
    lowest eigenvalue; in about one stack of five, one entry holds a NaN."""
    n = draw(st.integers(2, 8))
    size = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    low = draw(st.sampled_from(_anchors(n))) + draw(st.integers(-4, 4)) * EPS
    odd = draw(st.integers(0, size - 1))
    stack = np.stack([planted(n, draw(st.integers(1, n)), low, rng) if k == odd
                      else planted(n, n, healthy(n), rng) for k in range(size)])
    if draw(st.integers(0, 4)) == 0:
        stack[draw(st.integers(0, size - 1)), draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = np.nan
    return stack


def _outcome(check, *args):
    """The value `check` returns, or its exception's class, message and index."""
    try:
        return check(*args)
    except ValueError as exc:  # numpy.linalg.LinAlgError is a ValueError
        return type(exc), str(exc), getattr(exc, "index", None)


# derandomized, so every numpy that CI runs is tested on the same inputs
@settings(max_examples=400, derandomize=True, deadline=None)
@given(_stacks(_planted_density, lambda n: 1 / (4 * n)))
def test_density_equals_the_eigvalsh_oracle(stack):
    got, want = _outcome(_density, stack.copy()), _outcome(_density_oracle, stack.copy())
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.shape == want.shape and (got == want).all()


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_stacks(_planted_gram, lambda n: 0.5))
def test_branch_gram_check_equals_the_eigvalsh_oracle(stack):
    assert _outcome(_check_branch_grams, stack) == _outcome(_gram_check_oracle, stack)


def _counting(monkeypatch, name):
    """A list that collects the number of matrices each np.linalg.`name` call is given."""
    matrices = []
    solver = getattr(np.linalg, name)

    def counting(a, *args, **kwargs):
        matrices.append(math.prod(np.shape(a)[:-2]))
        return solver(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return matrices


def test_certificate_decides_only_what_it_can_certify(monkeypatch):
    matrices = _counting(monkeypatch, "eigvalsh")
    rng = np.random.default_rng(3)
    healthy = np.stack([_planted_density(4, 4, 0.05, rng) for _ in range(5)])
    assert (_lowest_eigenvalues(healthy, 0.0) == np.inf).all() and matrices == []
    singular = healthy.copy()
    singular[2] = _planted_density(4, 2, 0.0, rng)
    low = _lowest_eigenvalues(singular, 0.0)
    assert matrices == [5] and (low == np.linalg.eigvalsh(singular)[..., 0]).all()
    # lowest eigenvalues of 1e-10 certify above a floor of 0, not above 2e-10
    near = np.stack([_planted_density(4, 1, 1e-10, rng) for _ in range(2)])
    assert (_lowest_eigenvalues(near, 0.0) == np.inf).all()
    assert (_lowest_eigenvalues(near, 2e-10) < 2e-10).all()
    # a single matrix, alone or as a stack of one, goes to eigvalsh directly
    expected = np.linalg.eigvalsh(healthy[:1])[..., 0]
    matrices.clear()
    assert _lowest_eigenvalues(healthy[0], 0.0) == expected[0]
    assert (_lowest_eigenvalues(healthy[:1], 0.0) == expected).all()
    assert matrices == [1, 1]


@pytest.mark.parametrize("scenario", ["pure_pure", "mixed_pure", "mixed_mixed"])
def test_campaigns_run_no_eigvalsh_and_no_eigh(monkeypatch, scenario):
    """Drawn states are built without a spectral check
    (random._normalized_gram), a mixed detector is drawn as its spectral
    branches (random._detector_branches), and every reduced state and branch
    Gram a campaign checks is positive definite by construction, so the
    certificate settles it: no matrix goes to eigvalsh, to the clamp's eigh
    or to an eigh for a detector state's branches."""
    eigvalsh, eigh = _counting(monkeypatch, "eigvalsh"), _counting(monkeypatch, "eigh")
    path_counts = range(2, 7) if scenario == "mixed_mixed" else range(2, 9)
    for n in path_counts:
        run_campaign(scenario, 1000, 50 + n, n=n)
    assert sum(eigvalsh) == 0 and sum(eigh) == 0
