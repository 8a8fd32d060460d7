"""Dense complex linear algebra for small quantum objects.

All matrices and vectors are plain complex numpy arrays, and no function
writes to its inputs. What validation returns is read-only and can be
shared freely: a DensityMatrix's matrix and spectral_decompose's
eigenvectors. tensor, partial_trace_second and gram_factor_vectors return
freshly allocated, writeable arrays; dagger returns a view of its
argument, and as_matrix and as_vector return theirs as is when it already
is a finite complex array of the right shape.

The private helpers work over the trailing (n, n) axes of a stack of
matrices, so one formula serves a single object and the kernels in
``duality``. No command forms the joint matrix that tensor and
partial_trace_second build and trace; they remain as API and test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-10
MAX_COMPOSITE_DIM = 1024


class ValidationError(ValueError):
    """A matrix failed one of the quantum-state validity checks."""


class NotHermitianError(ValidationError):
    pass


class NotUnitTraceError(ValidationError):
    pass


class NotPSDError(ValidationError):
    pass


def _raise_first(bad, error: type[ValueError], describe) -> None:
    """Raise ``error(describe(i))`` at the first index i where `bad` holds.

    `bad` spans the leading (stack) axes of what was checked, so it is 0-d
    and i is () for a single object. The exception keeps i as its `index`,
    so a caller that evaluated a stack can name the entry that failed.
    """
    if bad.any() if bad.ndim else bad:  # a 0-d test is far cheaper as bool()
        index = tuple(int(v) for v in np.argwhere(bad)[0])
        exc = error(describe(index))
        exc.index = index
        raise exc


def frozen(a: np.ndarray) -> np.ndarray:
    """Copy of `a` with the write flag cleared."""
    out = np.array(a, dtype=complex, copy=True)
    out.setflags(write=False)
    return out


def as_matrix(m) -> np.ndarray:
    """Coerce to a finite 2-D complex array; a DensityMatrix, checked when built, passes as is."""
    if isinstance(m, DensityMatrix):
        return m.matrix
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains NaN or Inf entries")
    return a


def as_vector(v) -> np.ndarray:
    """Coerce to a finite 1-D complex array."""
    a = np.asarray(v, dtype=complex)
    if a.ndim != 1 or a.shape[0] < 1:
        raise ValueError(f"expected a 1-D vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("vector contains NaN or Inf entries")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def tensor(a, b) -> np.ndarray:
    """Kronecker product with a-index major, b-index minor block ordering.

    Entry ((i, k), (j, l)) of the result is a[i, j] * b[k, l], living at
    row i * b.rows + k, column j * b.cols + l. Raises if the combined
    dimension would exceed MAX_COMPOSITE_DIM.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[0] * b.shape[0] > MAX_COMPOSITE_DIM or a.shape[1] * b.shape[1] > MAX_COMPOSITE_DIM:
        raise ValueError(
            f"tensor product dimension {a.shape[0] * b.shape[0]}x{a.shape[1] * b.shape[1]} "
            f"exceeds the configured maximum {MAX_COMPOSITE_DIM}"
        )
    return np.kron(a, b)


def partial_trace_second(m, dim_first: int, dim_second: int) -> np.ndarray:
    """Trace out the second factor of a (dim_first * dim_second)-sided matrix.

    Entry (i, j) of the result is sum_k m[(i, k), (j, k)].
    """
    m = as_matrix(m)
    side = dim_first * dim_second
    if m.shape != (side, side):
        raise ValueError(
            f"matrix side {m.shape} does not match dim_first*dim_second = {dim_first}*{dim_second}"
        )
    blocks = m.reshape(dim_first, dim_second, dim_first, dim_second)
    return np.einsum("ikjk->ij", blocks)


def _partial_trace_pure(psi: np.ndarray) -> np.ndarray:
    """partial_trace_second of |psi><psi| for psi of shape (..., n, dim), the
    joint vector's (path, detector) factors, without the (n dim)^2 joint matrix.

    The terms psi_ik conj(psi_jk) are added in the order k = 0, 1, ..., as the
    einsum over the joint matrix adds them, so the result is the same to the bit.
    """
    acc = np.zeros(psi.shape[:-1] + psi.shape[-2:-1], dtype=complex)
    for k in range(psi.shape[-1]):
        acc += psi[..., :, None, k] * psi[..., None, :, k].conj()
    return acc


@dataclass(frozen=True)
class DensityMatrix:
    """A Hermitian, unit-trace matrix, PSD to rounding; the stored array is read-only.

    validate_density checks user input and stores it hermitized, clamped if
    needed and renormalized. Drawn Ginibre states (random._normalized_gram)
    are PSD by construction and unclamped: their lowest eigenvalue may be
    -4e-16 or so.
    """

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def diagonal(self) -> np.ndarray:
        """Real diagonal (the populations in the stored basis)."""
        return self.matrix.diagonal().real

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


def validate_density(m) -> DensityMatrix:
    """Check that `m` is a density matrix and wrap it.

    Accepts iff the Hermiticity deviation, the unit-trace deviation, and
    the most negative eigenvalue are all within DEFAULT_TOL. Eigenvalues in
    [-DEFAULT_TOL, 0) are clamped to zero and the matrix renormalized to
    unit trace, which keeps downstream square roots of populations real.
    eigvalsh gives the most negative eigenvalue here. The stacked kernels
    reach the same verdicts and bytes with one Cholesky factorization per
    stack where it certifies every entry (_lowest_eigenvalues).

    Raises NotHermitianError, NotUnitTraceError, or NotPSDError naming
    the measured violation.
    """
    m = np.asarray(m.matrix if isinstance(m, DensityMatrix) else m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"density matrix must be a non-empty square matrix, got shape {m.shape}")
    return DensityMatrix(matrix=frozen(_density(m)))


def _lowest_eigenvalues(h: np.ndarray, floor: float) -> np.ndarray:
    """eigvalsh(h)[..., 0] over a stack of Hermitian h, or +inf for every entry
    when one batched Cholesky certifies each lowest eigenvalue above `floor`.

    So any test `low >= t` or `low < t` with t <= floor reads the same verdict
    from either. The certificate factorizes a copy of h with floor + margin
    taken off its diagonal, margin = 8 (n+1)^2 eps. The margin dominates
    Cholesky's backward error, gamma_{n+1} tr(h) (Higham, Accuracy and
    Stability, Thm 10.3), plus eigvalsh's own eigenvalue error, p(n) eps
    ||h||_2, for traces up to n: 1 for states, n for unit-diagonal Grams. A
    single failing entry, or a non-finite factor (NaN and inf may pass
    numpy's Cholesky without an error), sends the whole stack to eigvalsh.
    A single matrix goes to eigvalsh directly: there the certificate costs
    as much as eigvalsh, and more when it fails."""
    n = h.shape[-1]
    if h.size > n * n:
        shifted = h.copy()
        shifted.reshape(*h.shape[:-2], n * n)[..., :: n + 1] -= floor + 8 * (n + 1) ** 2 * np.finfo(float).eps
        try:
            if np.isfinite(np.linalg.cholesky(shifted).diagonal(axis1=-2, axis2=-1)).all():
                return np.full(h.shape[:-2], np.inf)
        except np.linalg.LinAlgError:
            pass
    return np.linalg.eigvalsh(h)[..., 0]


def _density(m: np.ndarray) -> np.ndarray:
    """validate_density over the trailing (n, n) axes of a stack: the checked,
    hermitized, eigenvalue-clamped and renormalized matrices, freshly allocated.
    Every test is written so that NaN fails it. The PSD test and the clamp
    both compare the lowest eigenvalue with thresholds at or below 0, so
    _lowest_eigenvalues decides them with floor 0: a stack it certifies
    positive definite costs one Cholesky and no eigensolver."""
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
    low = _lowest_eigenvalues(h, 0.0)
    _raise_first(~(low >= -DEFAULT_TOL), NotPSDError,
                 lambda i: f"minimum eigenvalue {low[i]:.3e} below -{DEFAULT_TOL:.1e}")
    negative = low < 0.0
    if negative.any():
        vals, vecs = np.linalg.eigh(h[negative])
        clamped = (vecs * np.clip(vals, 0.0, None)[..., None, :]) @ dagger(vecs)
        h[negative] = (clamped + dagger(clamped)) / 2.0
    return h / h.trace(axis1=-2, axis2=-1).real[..., None, None]


def spectral_decompose(rho: DensityMatrix) -> list[tuple[float, np.ndarray]]:
    """Eigenpairs of a density matrix, eigenvalues descending.

    Eigenvalues are clamped at zero (they can undershoot by machine
    epsilon even for a validated input) and sum to one within tolerance;
    eigenvectors are orthonormal. For degenerate eigenvalues any
    orthonormal basis of the eigenspace may be returned, so callers must
    not rely on a specific choice. Eigensolver failures propagate as
    numpy.linalg.LinAlgError.
    """
    weights, kets = _spectrum(rho.matrix)
    return [(w, frozen(ket)) for w, ket in zip(weights.tolist(), kets)]


def _spectrum(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """spectral_decompose over the trailing (n, n) axes of a stack: the
    eigenvalues, descending and clamped at zero, and their eigenvectors as
    rows: a transposed view, which spectral_decompose copies row by row and
    states._branches multiplies into the unitaries."""
    vals, vecs = np.linalg.eigh(m)
    order = np.argsort(vals, axis=-1)[..., ::-1]
    weights = np.maximum(np.take_along_axis(vals, order, axis=-1), 0.0)
    return weights, np.take_along_axis(vecs, order[..., None, :], axis=-1).swapaxes(-1, -2)


def principal_submatrix_margin(m) -> float:
    """min over i != j of sqrt(m_ii * m_jj) - |m_ij|.

    Nonnegative for every PSD matrix: each principal 2x2 submatrix of a
    PSD matrix is itself PSD, so its determinant is nonnegative.
    """
    return float(_submatrix_margin(as_matrix(m)))


def _submatrix_margin(m: np.ndarray) -> np.ndarray:
    """principal_submatrix_margin over the trailing (n, n) axes of a stack."""
    d = np.clip(m.diagonal(axis1=-2, axis2=-1).real, 0.0, None)
    margins = np.sqrt(d[..., :, None] * d[..., None, :]) - np.abs(m)
    diagonal = np.arange(m.shape[-1])
    margins[..., diagonal, diagonal] = np.inf
    return margins.min(axis=(-2, -1))


def gram_factor_vectors(gram) -> np.ndarray:
    """Row vectors v_0 .. v_{n-1} with <v_i|v_j> equal to gram[i, j].

    Factorizes through the eigendecomposition so PSD-singular Gram
    matrices (e.g. all pairwise overlaps equal to one) are handled.
    """
    g = as_matrix(gram)
    if g.shape[0] != g.shape[1]:
        raise ValueError("Gram matrix must be square")
    return _gram_factors(g)


def _gram_factors(g: np.ndarray) -> np.ndarray:
    """gram_factor_vectors over the trailing (n, n) axes of a stack of Grams,
    with one batched eigh. A Gram that is not Hermitian or not PSD raises the
    single-matrix message, its stack index in the exception's `index`. A real
    stack is factored as complex, as as_matrix reads a single Gram."""
    g = np.asarray(g, dtype=complex)
    adjoint = dagger(g)
    herm_dev = np.abs(g - adjoint).max(axis=(-2, -1))
    _raise_first(~(herm_dev <= DEFAULT_TOL), NotHermitianError,
                 lambda i: f"Gram Hermiticity deviation {herm_dev[i]:.3e} over {DEFAULT_TOL:.1e}")
    vals, vecs = np.linalg.eigh((g + adjoint) / 2.0)
    low = vals[..., 0]
    _raise_first(low < -DEFAULT_TOL, NotPSDError,
                 lambda i: f"Gram minimum eigenvalue {low[i]:.3e} below -{DEFAULT_TOL:.1e}")
    factors = vecs * np.sqrt(np.clip(vals, 0.0, None))[..., None, :]
    # rows of conj(L) have <v_i|v_j> = (L L^dag)_ij = gram_ij
    return factors.conj()
