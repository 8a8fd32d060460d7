"""Reproducible random instance generation.

All generators run on numpy's PCG64 bit generator. A plain integer seed
always reproduces the same objects; each campaign trial draws from its
own SeedSequence spawn key, so trial k of a campaign is a pure function
of (root seed, k) regardless of execution order, and stream(seed, k)
replays it.

A campaign draws its trials through one generator, `_stacks`: it computes
each trial's shape and the PCG64 position after it without a generator
(`_trial_shapes`), groups the waiting positions by (n, dim) and draws a
group once its rows of raw reals would fill STACK_BYTES, 1 MiB
(`_draw_stack`): one float64 stack with one row per trial, in the regions
`_trial_widths` gives, assembled over the stack with the helpers that the
public random_* generators run on a single instance. A mixed_mixed row is
reserved at full detector rank and its draws fill about half of it.

A mixed detector is drawn in its rank factor (_detector_branches): the
detector enters only through U_i rho_d U_j^dag = Q_i S^2 Q_j^dag, with
rho_d = V S^2 V^dag over its r nonzero weights and Q_i = U_i V. For Haar U_i,
each Q_i is an independent Haar dim x r isometry by left invariance
(Mezzadri, Notices AMS 54, 592 (2007)). So a trial draws r, the Gaussians
of its Ginibre factor G and of n isometries, and takes the branch weights
from G's singular values and the path kets from the isometries' columns;
no dim x dim unitary, no rho_d and no eigensolver is formed. `verify`
makes the same draw for its one instance (_mixed_detector_draw) and passes
the branches to the kernel as drawn; random_mixed_detector completes that
draw into an interaction whose spectral branches are the drawn ones. So
a seeded pure_pure or mixed_pure `verify` passes the amplitudes and
detector vectors it draws (_pure_quanton_draw, _pure_detector_draw), which
random_pure and random_detectors wrap in a PureQuanton and a DetectorSet.

What this module builds is final by construction: amplitudes and detector
vectors are divided by their norms, Ginibre states are hermitized and
divided by their real trace (PSD with unit trace), branch weights are
divided by their sum, and Haar unitaries and isometries come from a QR
factor. The public generators wrap them in the per-object types, whose
constructors check vectors and unitaries as they check any input and take
drawn states as DensityMatrix unchecked. A campaign checks the arrays
`_stacks` yields only for NaN or Inf entries (duality.run_campaign), and
the kernels use them as they come: the mixed_mixed kernel forms the Grams
of the drawn path kets, a campaign's or `verify`'s, and uses them and the
weights unchecked, as the pure-detector kernels use the Grams of the drawn
vectors.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .interference import symmetric_detectors
from .linalg import DensityMatrix, dagger, frozen
from .states import DetectorSet, MixedDetectorInteraction, MixedQuanton, PureQuanton, _weighted

# SeedSequence's hash constants (numpy.random.bit_generator) and its pool size
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
#: PCG64's 128-bit LCG multiplier
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
#: spawn keys whose states are derived together, which bounds the arrays held
_STATES_PER_BLOCK = 4096
#: bytes of raw draws at which a campaign draws and evaluates an (n, dim)
#: group of waiting trials as one stack, which caps the stacks and their
#: temporaries; a waiting trial holds only its generator position. Rows are
#: counted as reserved: a mixed_mixed trial at n = 6 reserves up to 16.7 kB
#: (dim = 12) at full detector rank and draws on average a little over half
#: of it. A full mixed_mixed stack peaks at about 2.3 times the budget while
#: it runs (QR copies, the zero-padded path kets, the branch Grams).
#: A stack pays a QR and an svd per detector rank and its kernel's stacked
#: calls once, so a larger one spreads them over more trials. In-process
#: 1000-trial mixed_mixed campaigns at n = 6 took 86, 71, 62 and 64 ms at
#: 256 KiB, 512 KiB, 1 MiB and 2 MiB, peaking at 0.96, 1.63, 2.75 and
#: 4.97 MB under tracemalloc (tools/stack_budget.py). From 256 KiB to 1 MiB
#: the campaign_mixed_mixed benchmark rose from 18040 to 23990 items/s and
#: its peak RSS from 43.07 to 44.76 MB (medians of 10 pairs).
STACK_BYTES = 1 << 20


def stream(seed: int, index: int) -> np.random.Generator:
    """Generator for sub-stream `index` of the root `seed`."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _hasher(hash_const: int, mult: int):
    """SeedSequence's hashmix over uint32 arrays; each call moves to the next multiplier."""
    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ value >> 16
    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return result ^ result >> 16


def _pcg64_states(seed: int, keys: np.ndarray) -> list[tuple[int, int]]:
    """(state, inc) of PCG64(SeedSequence(seed, spawn_key=(k,))) for each uint32 k of `keys`.

    SeedSequence's pool mixing and generate_state(4, uint64) run on all keys
    at once, as uint32 arrays: the seed's words, padded with zeros to the
    pool size, then the key. PCG64's two seeding steps follow in Python ints.
    """
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL_SIZE - len(words))
    entropy = [np.full(keys.shape, word, dtype=np.uint32) for word in words] + [keys]
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(_INIT_B, _MULT_B)
    state = [hashmix(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    # generate_state's uint64 words are little-endian pairs of uint32 words
    s_hi, s_lo, i_hi, i_lo = [(low | high << 32).tolist() for low, high in zip(state[::2], state[1::2])]
    out = []
    for seed_hi, seed_lo, seq_hi, seq_lo in zip(s_hi, s_lo, i_hi, i_lo):
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        out.append((((seed_hi << 64 | seed_lo) + inc) * _PCG_MULT + inc & _MASK128, inc))
    return out


def _bounded(r: int, position: tuple[int, int, int, int]) -> tuple[int, tuple[int, int, int, int]]:
    """Generator.integers(off, off + r, endpoint=True) - off for 0 <= r < 2^32 on
    a PCG64 generator at `position` (see _position), and the position it
    leaves. r = 0 draws nothing. Otherwise Lemire's method redraws u (r + 1)
    while its low 32 bits are < (2^32 - 1 - r) mod (r + 1) and returns its
    high bits. A u is the buffered half if one is held; else PCG64 steps
    (state mult + inc mod 2^128), outputs rotr64(hi ^ lo, state >> 122), and
    u is the output's low half and its high half is buffered.
    """
    if not 0 <= r <= _MASK32:  # at r >= 2^32 the threshold is >= 2^32 and no u is accepted
        raise ValueError(f"a bounded draw's range must lie in 0..2^32 - 1, got {r}")
    if r == 0:
        return 0, position
    state, inc, has_uint32, uinteger = position
    threshold = (_MASK32 - r) % (r + 1)
    while True:
        if has_uint32:
            u, has_uint32 = uinteger, 0
        else:
            state = state * _PCG_MULT + inc & _MASK128
            word, rot = (state >> 64 ^ state) & _MASK64, state >> 122
            output = (word >> rot | word << 64 - rot) & _MASK64
            u, has_uint32, uinteger = output & _MASK32, 1, output >> 32
        m = u * (r + 1)
        if m & _MASK32 >= threshold:
            return m >> 32, (state, inc, has_uint32, uinteger)


def _position(rng: np.random.Generator) -> tuple[int, int, int, int]:
    """Where a PCG64 generator stands: its state, inc, has_uint32 and uinteger
    (test oracle only; a campaign computes its positions with _bounded).

    A bounded integer draw may leave half of a 64-bit output buffered
    (has_uint32 = 1, uinteger the buffered half), so all four are needed for
    _resume to continue exactly where `rng` would.
    """
    state = rng.bit_generator.state
    return state["state"]["state"], state["state"]["inc"], state["has_uint32"], state["uinteger"]


def _resume(rng: np.random.Generator, position: tuple[int, int, int, int]) -> None:
    """Set the PCG64 generator `rng` to `position` (see _position)."""
    state, inc, has_uint32, uinteger = position
    rng.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": has_uint32, "uinteger": uinteger}


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _complex(raw: np.ndarray) -> np.ndarray:
    """Complex matrices from raw Gaussians (..., 2, rows, cols): real parts, then imaginary."""
    return raw[..., 0, :, :] + 1j * raw[..., 1, :, :]


def _amplitudes(raw: np.ndarray) -> np.ndarray:
    """Normalized amplitudes from raw Gaussians (..., 2, n). Each norm is
    np.linalg.norm's on one vector: the real dot products of its real and
    imaginary parts, taken as strided views of the complex array (BLAS
    rounds the contiguous raw rows differently from n = 4 on)."""
    amps = raw[..., 0, :] + 1j * raw[..., 1, :]
    return amps / np.sqrt(np.vecdot(amps.real, amps.real) + np.vecdot(amps.imag, amps.imag))[..., None]


def _unit_vectors(raw: np.ndarray) -> np.ndarray:
    """Unit detector vectors from raw Gaussians (..., 2, n, dim)."""
    vecs = _complex(raw)
    vecs /= np.linalg.norm(vecs, axis=-1)[..., None]
    return vecs


def _normalized_gram(g: np.ndarray) -> np.ndarray:
    """Ginibre states G G^dag / Tr(G G^dag) over the trailing axes of complex G,
    hermitized and divided by the real trace as linalg._density ends. PSD with
    unit trace by construction, they get no Hermiticity, trace or PSD test and
    no clamp. A stack of one rank is the per-matrix product bit for bit, where
    zero-padding G to a common rank is not."""
    m = g @ dagger(g)
    m = (m + dagger(m)) / 2.0
    return m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None]


def _detector_rank(dim: int, rng: np.random.Generator) -> int:
    """A Ginibre detector state's rank, drawn uniformly from 1..dim."""
    return int(rng.integers(1, dim, endpoint=True))


def _of_rank(ranks: Sequence[int]) -> dict[int, np.ndarray]:
    """The stack entries of each rank in `ranks`: each batched step over a
    stack of drawn ranks runs once per rank, on that rank's entries."""
    # not np.unique: numpy 2.4's first np.unique call in a process raises its
    # peak RSS by 1.4-1.7 MB
    return {rank: np.array([i for i, r in enumerate(ranks) if r == rank]) for rank in set(ranks)}


def _form_per_rank(gaussians: np.ndarray, ranks: Sequence[int], dim: int) -> np.ndarray:
    """A (k, dim, dim) stack of Ginibre states: entry i is G G^dag / Tr(G G^dag)
    for the (dim, ranks[i]) G whose raw Gaussians are the first 2 dim ranks[i]
    reals of row i of `gaussians`. One batched _normalized_gram forms the
    states of each rank (_of_rank), which is random_density_matrix's product
    on each of them bit for bit."""
    states = np.empty((len(gaussians), dim, dim), dtype=complex)
    for rank, entries in _of_rank(ranks).items():
        states[entries] = _normalized_gram(_complex(gaussians[entries, :2 * dim * rank].reshape(-1, 2, dim, rank)))
    return states


def _haar(z: np.ndarray) -> np.ndarray:
    """Haar unitaries, or Haar isometries, from complex Gaussian matrices of
    shape (..., dim, r) with r <= dim: the Q of their thin QR.

    The R factor's diagonal phases are absorbed into Q's r columns, which
    both fixes the QR gauge (making the draw genuinely Haar) and makes the
    result a deterministic function of the seed.
    """
    q, r = np.linalg.qr(z)
    d = r.diagonal(axis1=-2, axis2=-1)
    q *= (d / np.abs(d))[..., None, :]
    return q


def _detector_branches(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A mixed detector's spectral branches in its rank factor, from raw
    Gaussians (..., n + 1, dim, r, 2), each complex entry's real and
    imaginary parts side by side, so the complex matrices are a view of
    them: the weights (..., r), the squared singular values of the first
    matrix, the Ginibre factor G, divided by their sum, with
    states._weighted's cutoff; and the n path isometries Q_i = U_i V
    (..., n, dim, r), Haar (_haar) from the rest, whose column k is the path
    ket U_i|d_k> of weight k. The weights are rho_d's spectrum, descending
    as states._branches orders it, and the isometries are independent of
    them, as U_i V is of V.

    svd raises on a NaN or Inf entry. So a G that holds one is factored
    with those entries set to 1 and gets NaN weights, which
    run_campaign's drawn-array check names by trial."""
    z = raw.view(complex)[..., 0]
    g = z[..., 0, :, :]
    try:
        s = np.linalg.svd(g, compute_uv=False) ** 2
    except np.linalg.LinAlgError:
        finite = np.isfinite(g).all(axis=(-2, -1))[..., None]
        s = np.where(finite, np.linalg.svd(np.where(np.isfinite(g), g, 1.0), compute_uv=False) ** 2, np.nan)
    return _weighted(s / s.sum(axis=-1, keepdims=True)), _haar(z[..., 1:, :, :])


def _draw_shape(rng: np.random.Generator, n_choices, detector_dim: int | None) -> tuple[int, int]:
    """A campaign trial's first draws on a generator (test oracle only; see
    _trial_shapes): its path count from `n_choices` and its detector
    dimension, uniform over n..2n unless given."""
    n = int(n_choices[rng.integers(len(n_choices))])
    return n, detector_dim if detector_dim is not None else int(rng.integers(n, 2 * n, endpoint=True))


def _trial_shapes(seed: int, trials: int, n_choices: Sequence[int],
                  detector_dim: int | None) -> Iterator[tuple[tuple[int, int], tuple[int, int, int, int]]]:
    """For each trial k in 0..trials - 1 (at most 2^32 of them), the shape
    (n, dim) that _draw_shape draws on stream(seed, k) and the position
    (_position) it leaves, computed with _bounded from the state
    stream(seed, k) starts in (_pcg64_states), with no generator."""
    last = len(n_choices) - 1
    for first in range(0, trials, _STATES_PER_BLOCK):
        keys = np.arange(first, min(first + _STATES_PER_BLOCK, trials), dtype=np.uint32)
        for state, inc in _pcg64_states(seed, keys):
            i, position = _bounded(last, (state, inc, 0, 0))
            n = n_choices[i]
            dim = detector_dim
            if dim is None:
                dim, position = _bounded(n, position)
                dim += n
            yield (n, dim), position


def _trial_widths(scenario: str, n: int, dim: int) -> tuple[int, int]:
    """The reals of the two regions of a trial's row of an (n, dim) group's
    stack, in draw order: the quanton's Ginibre Gaussians, and the Gaussian
    block, which holds the amplitudes' (2, n) and the detector vectors'
    (2, n, dim) for pure_pure, the detector vectors' for mixed_pure, and for
    mixed_mixed the (n + 1, dim, r, 2) of the detector state's Ginibre factor
    and its n path isometries (_detector_branches). Each region holds the
    Gaussians of the largest rank, r = n for the quanton and r = dim for the
    detector, so the widths do not depend on the ranks drawn."""
    if scenario == "pure_pure":
        return 0, 2 * n * (1 + dim)
    if scenario == "mixed_pure":
        return 2 * n * n, 2 * n * dim
    return 2 * n * n, 2 * (n + 1) * dim * dim


def _trial_bytes(scenario: str, n: int, dim: int) -> int:
    """The bytes of one trial's row of a stack (see _trial_widths)."""
    return 8 * sum(_trial_widths(scenario, n, dim))


def _empty_stack(scenario: str, n: int, dim: int, trials: int) -> np.ndarray:
    """An uninitialized float64 stack for `trials` trials of an (n, dim) group,
    one row of reals per trial (_trial_widths). An array whose bytes pass
    numpy's size limit raises MemoryError, as one too large to allocate does."""
    shape = (trials, sum(_trial_widths(scenario, n, dim)))
    try:
        return np.empty(shape)
    except ValueError as exc:  # "array is too big", or a width past the largest dimension
        raise MemoryError(f"Unable to allocate an array with shape {shape} and data type float64: {exc}") from None


def _draw_row(scenario: str, rng: np.random.Generator, row: np.ndarray, quanton_reals: int,
              dim: int, block: int) -> int | None:
    """Draw what a trial draws after its shape and quanton rank into `row`,
    its row of the stack, whose Gaussian block begins at `block`: the
    quanton's `quanton_reals` Ginibre Gaussians; for mixed_mixed the detector
    state's rank r (_detector_rank); then the Gaussian block, of which
    mixed_mixed's detector fills r / dim. Each region's draws fill its first
    reals. Returns the detector state's rank, or None."""
    if scenario != "pure_pure":
        rng.standard_normal(out=row[:quanton_reals])
    detector_rank = None
    if scenario == "mixed_mixed":
        detector_rank = _detector_rank(dim, rng)
        row = row[:block + (len(row) - block) // dim * detector_rank]
    rng.standard_normal(out=row[block:])
    return detector_rank


def _draw_stack(scenario: str, n: int, dim: int, rank: int | None, rng: np.random.Generator,
                positions: Sequence[tuple[int, int, int, int]]) -> tuple[np.ndarray, ...]:
    """The arrays that duality._kernel takes (amplitudes and detector vectors;
    the quanton state and detector vectors; or the quanton state, branch
    weights (k, dim) and path kets (k, dim, n, dim)) over a stack of trials
    of one (n, dim) group, final by construction, from each trial's position
    after its shape (see _trial_shapes). A mixed trial's quanton rank is
    `rank`, or else its next draw (_bounded); `rng` is then set once to where
    the trial stands (_resume), the rest of the trial is drawn into its row
    of one stack of reals (_draw_row), and the regions of the rows are
    assembled over the whole stack, the quanton states and a mixed
    detector's branches once per rank drawn (_of_rank). A mixed_mixed
    trial's r branches (_detector_branches) are padded to dim with branches
    of weight zero and zero kets. A real beyond a region's draws is never
    read."""
    stack = _empty_stack(scenario, n, dim, len(positions))
    quanton, _ = _trial_widths(scenario, n, dim)
    ranks = [rank] * len(positions)
    if scenario != "pure_pure" and rank is None:
        draws = [_bounded(n - 1, position) for position in positions]
        ranks, positions = [1 + r for r, _ in draws], [position for _, position in draws]
    detector_ranks = []
    for position, row, r in zip(positions, stack, ranks):
        _resume(rng, position)
        detector_ranks.append(_draw_row(scenario, rng, row, 2 * n * (r or 0), dim, quanton))
    block = stack[:, quanton:]
    # a NaN in a raw block spreads through the assembly unwarned, and the
    # checks after it reject it and name its trial
    with np.errstate(invalid="ignore"):
        if scenario == "pure_pure":
            amps, vecs = block[:, :2 * n].reshape(-1, 2, n), block[:, 2 * n:].reshape(-1, 2, n, dim)
            return _amplitudes(amps), _unit_vectors(vecs)
        rho = _form_per_rank(stack[:, :quanton], ranks, n)
        if scenario == "mixed_pure":
            return rho, _unit_vectors(block.reshape(-1, 2, n, dim))
        weights, kets = np.zeros((len(positions), dim)), np.zeros((len(positions), dim, n, dim), dtype=complex)
        isometries = kets.transpose(0, 2, 3, 1)  # path i's isometry has the kets U_i|d_k> as its columns
        for r, entries in _of_rank(detector_ranks).items():
            raw = block[entries, :2 * (n + 1) * dim * r].reshape(-1, n + 1, dim, r, 2)
            weights[entries, :r], isometries[entries, ..., :r] = _detector_branches(raw)
        return rho, weights, kets


def _stacks(scenario: str, seed: int, trials: int, n_choices: Sequence[int], detector_dim: int | None,
            rank: int | None) -> Iterator[tuple[list[int], tuple[np.ndarray, ...]]]:
    """A campaign's draws, stack by stack: each stack's trial indices and the
    arrays _draw_stack draws for them. Before the first draw, one trial of the
    largest shape the options allow, max(n) paths by a detector dimension of
    `detector_dim` or 2 max(n), is allocated (_empty_stack), so whether a
    campaign fits does not depend on the seed. Every trial is drawn on one
    generator, stream(seed, 0), which _draw_stack sets to each trial's
    position. A trial waits in its (n, dim) group as the position after its
    shape draws (_trial_shapes); a group is drawn once its trials' rows
    (_trial_bytes) reach STACK_BYTES, and what is left of each group at the
    end. A row is counted as reserved, a mixed_mixed one at full detector
    rank, so a mixed_mixed stack draws about half the budget."""
    _empty_stack(scenario, max(n_choices), detector_dim or 2 * max(n_choices), 1)
    rng = stream(seed, 0)  # rejects a negative seed
    # each waiting group's trial indices, their positions and one trial's bytes of draws
    pending: dict[tuple[int, int], tuple[list[int], list, int]] = {}
    for trial, (group, position) in enumerate(_trial_shapes(seed, trials, n_choices, detector_dim)):
        if group not in pending:
            pending[group] = [], [], _trial_bytes(scenario, *group)
        indices, positions, row_bytes = pending[group]
        indices.append(trial)
        positions.append(position)
        if len(indices) * row_bytes >= STACK_BYTES:
            del pending[group]
            yield indices, _draw_stack(scenario, *group, rank, rng, positions)
    for group, (indices, positions, _) in pending.items():
        yield indices, _draw_stack(scenario, *group, rank, rng, positions)


def _pure_quanton_draw(n: int, rng: np.random.Generator) -> np.ndarray:
    """A pure quanton's amplitudes (n,), drawn as random_pure draws them and
    unit by construction, so a seeded `verify` passes them to the kernel
    with no PureQuanton built."""
    if n < 2:
        raise ValueError("need at least 2 paths")
    return _amplitudes(rng.standard_normal((2, n)))


def _pure_detector_draw(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """n detector vectors (n, dim), drawn as random_detectors draws them and
    unit by construction, so a seeded `verify` passes them to the kernel
    with no DetectorSet built."""
    if dim < 1:
        raise ValueError("detector dimension must be >= 1")
    return _unit_vectors(rng.standard_normal((2, n, dim)))


def random_pure(n: int, seed) -> PureQuanton:
    """Haar-random pure quanton: a normalized complex Gaussian vector (_pure_quanton_draw)."""
    return PureQuanton(amplitudes=_pure_quanton_draw(n, _as_rng(seed)))


def random_density_matrix(dim: int, rank: int, seed) -> DensityMatrix:
    """Ginibre-random density matrix G G^dag / Tr(G G^dag) with G of shape (dim, rank),
    PSD with unit trace by construction and given no spectral check."""
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must lie in 1..{dim}, got {rank}")
    return DensityMatrix(frozen(_normalized_gram(_complex(_as_rng(seed).standard_normal((2, dim, rank))))))


def random_density(n: int, rank: int, seed) -> MixedQuanton:
    """Ginibre-random mixed quanton on n paths; rank 1 gives pure states."""
    if n < 2:
        raise ValueError("need at least 2 paths")
    return MixedQuanton(rho=random_density_matrix(n, rank, seed))


def random_detectors(n: int, dim: int, seed) -> DetectorSet:
    """n independent Haar-random unit vectors in dimension dim (_pure_detector_draw)."""
    return DetectorSet(_pure_detector_draw(n, dim, _as_rng(seed)))


def uniform_overlap_detectors(n: int, gamma: float, dim: int, seed) -> DetectorSet:
    """Detector set with every pairwise overlap equal to gamma.

    symmetric_detectors(n, gamma)'s vectors, which factorize the Gram
    matrix (1 - gamma) I + gamma J, are embedded in `dim` dimensions and
    rotated by a Haar-random unitary; the rotation changes nothing
    measurable but exercises detectors that do not live in a coordinate
    subspace.
    """
    base = symmetric_detectors(n, gamma).vectors
    if dim < n:
        raise ValueError(f"detector dimension {dim} cannot hold {n} states of this family")
    embedded = np.zeros((n, dim), dtype=complex)
    embedded[:, :n] = base
    return DetectorSet(embedded @ haar_unitary(dim, seed).T)


def _mixed_detector_draw(n: int, dim: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A mixed detector for n paths, drawn as a campaign trial draws it: the
    detector state's rank r, uniform over 1..dim, then the Gaussians of its
    (dim, r) Ginibre factor and of n (dim, r) path isometries, whose branch
    weights (r,) and path kets _detector_branches forms. The kets come as
    states._branches gives an interaction's, C-contiguous (r, n, dim) with
    row k the kets U_i|d_k> of weight k, so `verify` passes the pair to the
    kernel as a stack of one, and random_mixed_detector completes it."""
    if dim < 1:
        raise ValueError("detector dimension must be >= 1")
    weights, isometries = _detector_branches(rng.standard_normal((n + 1, dim, _detector_rank(dim, rng), 2)))
    return weights, np.ascontiguousarray(isometries.transpose(2, 0, 1))


def random_mixed_detector(n: int, dim: int, seed) -> MixedDetectorInteraction:
    """Mixed detector for n paths, completed from _mixed_detector_draw's
    branches. The detector state is the diagonal of the weights, the spectrum
    of a rank-r Ginibre state, and U_i is path i's isometry, the kets
    U_i|d_k> as its columns, completed by an orthonormal basis of its
    complement (a QR of it), so each U_i rho_d U_j^dag is distributed as for
    a Ginibre state and Haar unitaries; the spectral branches that
    states._branches takes from it are the drawn ones, bit for bit."""
    weights, kets = _mixed_detector_draw(n, dim, _as_rng(seed))
    isometries = kets.transpose(1, 2, 0)
    complement = np.linalg.qr(isometries, mode="complete")[0][..., len(weights):]
    rho_d = DensityMatrix(frozen(np.diag(np.concatenate([weights, np.zeros(dim - len(weights))])).astype(complex)))
    return MixedDetectorInteraction(rho_d=rho_d, unitaries=np.concatenate([isometries, complement], axis=-1))


def haar_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix (see _haar)."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    return _haar(_complex(_as_rng(seed).standard_normal((2, dim, dim))) / np.sqrt(2.0))
