"""Experiment orchestration: evaluate the duality relations on single
configurations, overlap sweeps, and randomized campaigns.

Three scenarios are covered:

* ``pure_pure``    pure quanton, pure (vector) detectors; coherence and
  distinguishability sum to one exactly.
* ``mixed_pure``   mixed quanton, pure detectors; the sum falls short of
  one by a nonnegative slack, and the three terms form an identity.
* ``mixed_mixed``  mixed quanton, mixed detector state with per-path
  unitaries; coherence is bounded by its branch average and the duality
  survives as an inequality.

Every report records signed residuals, not just booleans, so regressions
in numerical quality stay visible.

Each scenario's composition is written once, as a kernel over stacks of
checked arrays (``_*_stack``), and every command runs it: a campaign on its
draws in (n, detector dimension) stacks; evaluate_*, `verify` and
sweep_overlap through one entry (_instance_table) that takes stacked
detector arrays, one instance as a stack of one and a sweep's gammas as one
stack, their vectors factored by one batched eigh. The fringe runs the pure_pure
kernel on the state it scans, and the two- and three-slit checks read C and
D_Q from evaluate_pure. Each kernel
states its own relations as columns over its stack, and one tail
(``_tabulate``) adds the duality sum, the PSD margin and the verdicts the
same way. Every command writes its CSV from these columns (_Table.columns);
evaluate_* and sweep_overlap pack them into reports for their callers.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .interference import FringeScan, _uniform_overlap_grams, scan_visibility, symmetric_detectors
from .linalg import (
    DensityMatrix,
    _density,
    _gram_factors,
    _partial_trace_pure,
    _raise_first,
    _submatrix_margin,
    frozen,
)
from .measures import _branch_coherence_bound, _branch_distinguishability, _coherence, _slack, _uqsd
from .random import _draw_stack, _empty_stack, _trial_bytes, _trial_shapes, stream
from .states import (
    DetectorSet,
    MixedDetectorInteraction,
    MixedQuanton,
    PureQuanton,
    _branch_grams,
    _branches,
    _check_branch_grams,
    _check_branch_weights,
    _check_composite,
    _check_normalized,
    _check_unitaries,
    _detector_gram,
    _overlap_factors,
)

TOLERANCE = 1e-9
MARGIN_TOL = 1e-10
SCENARIOS = ("pure_pure", "mixed_pure", "mixed_mixed")
VISIBILITY_MAX_PATHS = 3  # the fringe correspondences of the two- and three-slit families
#: bytes of raw draws at which a campaign draws and evaluates an (n, dim)
#: group of waiting trials as one stack, which caps the stacks and their
#: temporaries; a waiting trial holds only its generator position. A
#: mixed_mixed trial at n = 6 draws about 10 kB, its detector Gaussians
#: waiting in its row of the detector states, and its stack needs about five
#: times that while it runs (QR copies, rotated branch kets, the weighted
#: branch Grams gathered for their check).
#: On 1000-trial campaigns, against a 64 KiB budget with drawn trials waiting,
#: peak RSS stayed flat at 128 KiB and rose 0.7-0.9 MB at 256 KiB and 2.6 MB at
#: 512 KiB.
STACK_BYTES = 1 << 18

#: the CSV columns of one report; `verify --format csv` adds the seed, and a
#: campaign, which scans no visibility, its trial and seed (CSV_COLUMNS)
REPORT_COLUMNS = (
    "scenario",
    "n",
    "coherence",
    "distinguishability",
    "slack",
    "visibility",
    "duality_sum",
    "slack_identity",
    "coherence_bound_margin",
    "psd_margin_min",
    "passed",
)
CSV_COLUMNS = ("trial", "seed", *(column for column in REPORT_COLUMNS if column != "visibility"))
#: rows _write_csv formats and writes in one call. A block's cells are Python
#: objects while it is formatted, so the block, not the table, bounds that
#: memory: a 4096-row fringe holds a quarter of its cells at a time.
CSV_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class DualityReport:
    """Quantities, residuals, and verdicts for one configuration.

    relation_residuals carries signed values:

    * ``duality_sum``             coherence + distinguishability - 1
    * ``slack_identity``          coherence + distinguishability + slack - 1
      (mixed_pure only, an identity)
    * ``coherence_bound_margin``  branch-average bound minus coherence
      (mixed_mixed only, must be >= 0)
    * ``psd_margin_min``          smallest pairwise margin
      sqrt(rho_ii rho_jj) - |rho_ij| of the reduced quanton state

    ``slack`` is the identity residual term for mixed_pure, exactly zero
    for pure_pure, and the duality gap 1 - C - D for mixed_mixed.
    """

    scenario: str
    n: int
    coherence: float
    distinguishability: float
    slack: float
    visibility: float | None
    relation_residuals: dict[str, float]
    verdicts: dict[str, bool]

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())

    def to_dict(self) -> dict:
        return {**vars(self), "relation_residuals": dict(self.relation_residuals), "verdicts": dict(self.verdicts),
                "passed": self.passed}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


@dataclass(frozen=True, eq=False)
class _Table:
    """A stack's results as columns in report order; `values` holds n, C, D_Q, slack and any visibility.
    Every CSV is written from columns(); reports() packs them for callers that read reports."""

    scenario: str
    values: dict[str, np.ndarray]
    residuals: dict[str, np.ndarray]
    verdicts: dict[str, np.ndarray]

    @property
    def passed(self) -> np.ndarray:
        return np.logical_and.reduce(list(self.verdicts.values()))

    def columns(self) -> dict:
        """The scenario, values, residuals and `passed`; one the kernel did not compute is an empty cell."""
        return {"scenario": self.scenario, **self.values, **self.residuals, "passed": self.passed}

    def reports(self) -> list[DualityReport]:
        """One report per entry, every field a Python float, int or bool."""
        rows = [[dict(zip(part, row)) for row in zip(*[column.tolist() for column in part.values()])]
                for part in (self.values, self.residuals, self.verdicts)]
        return [DualityReport(self.scenario, **{"visibility": None, **values}, relation_residuals=residuals,
                              verdicts=verdicts) for values, residuals, verdicts in zip(*rows)]


def evaluate_pure(q: PureQuanton, d: DetectorSet, include_visibility: bool = False) -> DualityReport:
    """Entangle, trace the detector out, and check C + D_Q = 1.

    Coherence is read off the reduced state produced by the actual
    partial trace, so the equality genuinely tests the numerics rather
    than an algebraic shortcut.
    """
    return _instance_table(q, include_visibility, **_stack_of_one(d)).reports()[0]


def evaluate_mixed(q: MixedQuanton, d: DetectorSet, include_visibility: bool = False) -> DualityReport:
    """Mixed quanton, pure detectors: slack identity plus duality inequality.

    The reduced state is rho_ij <d_j|d_i> entrywise; C, D_Q, and the
    slack then satisfy C + D_Q + slack = 1 with slack >= 0.
    """
    return _instance_table(q, include_visibility, **_stack_of_one(d)).reports()[0]


def evaluate_mixed_detector(q: MixedQuanton, m: MixedDetectorInteraction,
                            include_visibility: bool = False) -> DualityReport:
    """Mixed quanton and mixed detector: the most general duality.

    Checks that the reduced coherence stays below its branch-averaged
    bound and that C + D_Q <= 1; ``slack`` records the observed gap.
    """
    return _instance_table(q, include_visibility, **_stack_of_one(m)).reports()[0]


def _stack_of_one(d: DetectorSet | MixedDetectorInteraction) -> dict[str, np.ndarray]:
    """A detector set or interaction as _instance_table's arrays, a stack of one."""
    if isinstance(d, MixedDetectorInteraction):
        return {"rho_d": d.rho_d.matrix[None], "unitaries": d.unitaries[None]}
    return {"vectors": d.vectors[None], "gram": d.gram[None]}


def _instance_table(q: PureQuanton | MixedQuanton, include_visibility: bool, *,
                    vectors: np.ndarray | None = None, gram: np.ndarray | None = None,
                    rho_d: np.ndarray | None = None, unitaries: np.ndarray | None = None) -> _Table:
    """The one entry from a quanton to the kernels, over a stack of checked
    detectors given as arrays: pure detectors as their (k, n, dim) vectors and
    (k, n, n) Grams, interactions as their (k, dim, dim) detector states and
    (k, n, dim, dim) unitaries. evaluate_* and `verify` pass a stack of one
    (_stack_of_one), _sweep_table the vectors of all its gammas. The quanton
    broadcasts over the stack; the arrays given and the quanton's type pick
    pure_pure, mixed_pure or mixed_mixed."""
    n = gram.shape[-1] if unitaries is None else unitaries.shape[-3]
    if q.n != n:
        other = "detectors have" if unitaries is None else "interaction has"
        raise ValueError(f"path count mismatch: quanton has {q.n}, {other} {n}")
    if unitaries is not None:
        return _mixed_mixed_stack(q.rho.matrix, rho_d, unitaries, include_visibility)
    if isinstance(q, PureQuanton):
        return _pure_pure_stack(_pure_reduced(q.amplitudes, vectors), q.amplitudes, gram, include_visibility)
    return _mixed_pure_stack(q.rho.matrix, gram, include_visibility)


def sweep_overlap(n: int, gammas: Sequence[float],
                  quanton: PureQuanton | MixedQuanton) -> list[DualityReport]:
    """Evaluate the uniform-overlap detector family at each gamma, as one stack.

    Along the sweep the coherence is nondecreasing and the
    distinguishability nonincreasing: raising every overlap hides path
    information and restores coherence in lockstep. Visibility is
    included for n <= VISIBILITY_MAX_PATHS. `sweep` writes _sweep_table's columns.
    """
    return _sweep_table(n, gammas, quanton).reports()


def _gamma_grid(gammas: Sequence[float], name: str = "gammas") -> list[float]:
    """The gammas as floats, checked to be a nonempty grid in [0, 1] (NaN is
    not) that ascends; a message names the grid `name`, such as the flag
    that gave it."""
    gammas = [float(g) for g in gammas]
    if not gammas:
        raise ValueError(f"{name} gives an empty gamma grid")
    if not all(0.0 <= g <= 1.0 for g in gammas):
        raise ValueError(f"{name} must lie in [0, 1], got {gammas!r}")
    if any(a > b for a, b in zip(gammas, gammas[1:])):
        raise ValueError(f"{name} must be sorted ascending, got {gammas!r}")
    return gammas


def _sweep_table(n: int, gammas: Sequence[float], quanton: PureQuanton | MixedQuanton) -> _Table:
    """sweep_overlap's table over the grid _gamma_grid checks: the
    uniform-overlap Grams of every gamma are factored by one batched eigh,
    and their vectors, checked as DetectorSet checks one set, go through
    _instance_table as one stack, which checks the quanton's path count. No
    DetectorSet is built."""
    vectors = _gram_factors(_uniform_overlap_grams(n, _gamma_grid(gammas)))
    return _instance_table(quanton, n <= VISIBILITY_MAX_PATHS, vectors=vectors, gram=_detector_gram(vectors))


def _equal_amplitude_quanton(n: int) -> PureQuanton:
    return PureQuanton(amplitudes=np.full(n, 1.0 / math.sqrt(n), dtype=complex))


def _pure_fringe(q: PureQuanton, d: DetectorSet, grid_points: int) -> tuple[FringeScan, DualityReport]:
    """The sampled fringe of a pure quanton behind pure detectors, and its
    pure_pure report, from one reduced state."""
    reduced = _pure_reduced(q.amplitudes[None], d.vectors[None])
    report = _pure_pure_stack(reduced, q.amplitudes[None], d.gram[None]).reports()[0]
    return scan_visibility(MixedQuanton(rho=DensityMatrix(frozen(reduced[0]))), grid_points), report


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
    r = evaluate_pure(q, d, include_visibility=True)
    return TwoSlitReport(
        visibility=r.visibility,
        coherence=r.coherence,
        distinguishability=r.distinguishability,
        residual_visibility_coherence=abs(r.visibility - r.coherence),
        residual_duality=abs(r.visibility + r.distinguishability - 1.0),
    )


def check_three_slit_relation(gamma: float) -> ThreeSlitReport:
    """Scan the symmetric three-slit pattern at uniform overlap gamma and
    compare against C = 2V / (3 - V) and D_Q + 2V / (3 - V) = 1."""
    r = evaluate_pure(_equal_amplitude_quanton(3), symmetric_detectors(3, gamma), include_visibility=True)
    mapped = 2.0 * r.visibility / (3.0 - r.visibility)
    return ThreeSlitReport(
        gamma=gamma,
        visibility=r.visibility,
        coherence=r.coherence,
        distinguishability=r.distinguishability,
        residual_coherence_visibility=abs(r.coherence - mapped),
        residual_duality=abs(r.distinguishability + mapped - 1.0),
    )


@dataclass(frozen=True, eq=False)
class CampaignResult:
    """Per-trial results as trial-indexed columns plus order-independent aggregate statistics."""

    scenario: str
    trials: int
    seed: int
    table: _Table

    @functools.cached_property
    def reports(self) -> tuple[DualityReport, ...]:
        """One report per trial, packed from the columns when first read."""
        return tuple(self.table.reports())

    @property
    def passed(self) -> bool:
        return bool(self.table.passed.all())

    def violations(self) -> list[int]:
        """Trial indices whose reports failed; replay with stream(seed, index)."""
        return np.flatnonzero(~self.table.passed).tolist()

    def aggregate(self) -> dict:
        residuals = self.table.residuals
        violating = self.violations()
        out = {
            "scenario": self.scenario,
            "trials": self.trials,
            "seed": self.seed,
            "violations": len(violating),
            "violating_trials": violating[:16],
            "max_abs_residuals": {k: float(np.abs(v).max()) for k, v in residuals.items()},
            "mean_abs_residuals": {k: float(np.mean(np.abs(v))) for k, v in residuals.items()},
            "max_duality_sum": float(residuals["duality_sum"].max()),
            "min_slack": float(self.table.values["slack"].min()),
            "min_psd_margin": float(residuals["psd_margin_min"].min()),
            "passed": not violating,
        }
        if self.scenario == "mixed_mixed":
            out["min_coherence_bound_margin"] = float(residuals["coherence_bound_margin"].min())
        return out

    def to_csv(self, path_or_file) -> None:
        """One row per trial, fixed column order, 17 significant digits."""
        _write_csv(path_or_file, CSV_COLUMNS, {"trial": np.arange(self.trials), "seed": self.seed,
                                               **self.table.columns()})


def _write_csv(path_or_file, header: Sequence[str], columns: dict, comment: str | None = None) -> None:
    """Write an optional `# comment` line, then the `header` columns as CSV rows,
    each formatted by one printf template. A column is a constant or an
    array. A constant (an int or str, such as a campaign's seed) is a
    literal in the template, and None or a missing column an empty one. An
    int array is written with %d, a float array with %.17g (17 significant
    digits round-trip exactly) and a bool array as true/false. Rows go out
    CSV_BLOCK_ROWS at a time: a block is sliced from the arrays and formatted
    by one % on the template repeated once per row, then written in one call."""
    if not hasattr(path_or_file, "write"):
        with open(path_or_file, "w", encoding="utf-8", newline="") as fh:
            return _write_csv(fh, header, columns, comment)
    fields, cells = [], []
    for name in header:
        column = columns.get(name)
        if column is None or isinstance(column, (int, str)):
            fields.append("" if column is None else str(column).replace("%", "%%"))
        elif column.dtype.kind == "b":
            fields.append("%s")
            cells.append(np.where(column, "true", "false"))
        else:
            fields.append("%.17g" if column.dtype.kind == "f" else "%d")
            cells.append(column)
    template = ",".join(fields) + "\n"
    if comment is not None:
        path_or_file.write(f"# {comment}\n")
    path_or_file.write(",".join(header) + "\n")
    rows = min((len(cell) for cell in cells), default=0)
    for start in range(0, rows, CSV_BLOCK_ROWS):
        count = min(CSV_BLOCK_ROWS, rows - start)
        # the block's cells in row order; no per-row tuple is built
        flat = [None] * (count * len(cells))
        for j, cell in enumerate(cells):
            flat[j::len(cells)] = cell[start:start + count].tolist()
        path_or_file.write(template * count % tuple(flat))


def _tabulate(scenario: str, reduced: np.ndarray, include_visibility: bool, coherence: np.ndarray,
              dq: np.ndarray, slack: np.ndarray, *, saturated: bool = False,
              relations: tuple[tuple[str, np.ndarray, np.ndarray], ...] = (),
              checks: tuple[tuple[str, np.ndarray], ...] = ()) -> _Table:
    """Shared tail of every kernel: the stack's table.

    Every scenario reports the signed duality sum C + D_Q - 1 (held to
    |.| <= TOLERANCE when the state saturates the duality, to <= TOLERANCE
    otherwise) and the PSD margin of its reduced state. `relations` adds the
    kernel's own (residual, values, verdicts) columns and `checks` its
    verdicts that carry no residual; their order is the report order.
    """
    # C and D_Q passed _clamp_unit, which rejects NaN and inf; the slack did not
    _raise_first(~np.isfinite(slack), ValueError, lambda i: f"slack is not finite: {float(slack[i])!r}")
    duality_sum = coherence + dq - 1.0
    psd_margin = _submatrix_margin(reduced)
    values = {"n": np.full(len(reduced), reduced.shape[-1]), "coherence": coherence, "distinguishability": dq,
              "slack": slack}
    if include_visibility:
        values["visibility"] = np.array([scan_visibility(MixedQuanton(rho=DensityMatrix(frozen(rho)))).visibility
                                         for rho in reduced])
    residuals = {"duality_sum": duality_sum, **{key: value for key, value, _ in relations},
                 "psd_margin_min": psd_margin}
    verdicts = {"duality_sum": (np.abs(duality_sum) if saturated else duality_sum) <= TOLERANCE,
                **{key: ok for key, _, ok in relations}, "psd_margin_min": psd_margin >= -MARGIN_TOL,
                **dict(checks)}
    return _Table(scenario, values, residuals, verdicts)


def _pure_reduced(amps: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """The checked reduced quanton states of sum_i c_i (e_i tensor d_i). The joint
    state is never formed: its partial trace is taken from the (path, detector)
    factors directly."""
    _check_composite(*vecs.shape[-2:])
    return _density(_partial_trace_pure(amps[..., :, None] * vecs))


def _pure_pure_stack(reduced: np.ndarray, amps: np.ndarray, gram: np.ndarray,
                     include_visibility: bool = False) -> _Table:
    """pure_pure from the reduced states (_pure_reduced), the normalized
    amplitudes and the detector Gram: C + D_Q = 1, with no slack."""
    coherence = _coherence(reduced)
    return _tabulate("pure_pure", reduced, include_visibility, coherence, _uqsd(np.abs(amps) ** 2, gram),
                     np.zeros_like(coherence), saturated=True)


def _mixed_pure_stack(rho: np.ndarray, gram: np.ndarray, include_visibility: bool = False) -> _Table:
    """mixed_pure from density matrices and detector Grams: the reduced state is
    rho_ij <d_j|d_i>, and C + D_Q + slack = 1 with slack >= 0."""
    reduced = _density(rho * gram.conj())
    coherence = _coherence(reduced)
    dq = _uqsd(rho.diagonal(axis1=-2, axis2=-1).real, gram)
    slack = _slack(rho, gram)
    identity = coherence + dq + slack - 1.0
    return _tabulate("mixed_pure", reduced, include_visibility, coherence, dq, slack,
                     relations=(("slack_identity", identity, np.abs(identity) <= TOLERANCE),),
                     checks=(("slack_nonnegative", slack >= -MARGIN_TOL),))


def _mixed_mixed_stack(rho: np.ndarray, rho_d: np.ndarray, unitaries: np.ndarray,
                       include_visibility: bool = False) -> _Table:
    """mixed_mixed from density matrices, detector states and path unitaries:
    C stays below its branch-average bound, and the slack is the gap 1 - C - D_Q.
    Every entry keeps all dim spectral branches; those below the weight cutoff
    carry weight zero and add exact zeros to the branch averages. So only the
    weighted branches' Grams are checked, as BranchOverlaps checks the
    branches that branch_overlaps keeps, in one batch over the stack."""
    reduced = _density(rho * _overlap_factors(unitaries, rho_d))
    coherence = _coherence(reduced)
    weights, kets = _branches(rho_d)
    grams = _branch_grams(unitaries, kets)
    _check_branch_weights(weights)
    _check_branch_grams(grams, weights > 0.0)
    dq = _branch_distinguishability(rho.diagonal(axis1=-2, axis2=-1).real, weights, grams)
    bound_margin = _branch_coherence_bound(rho, weights, grams) - coherence
    return _tabulate("mixed_mixed", reduced, include_visibility, coherence, dq, 1.0 - coherence - dq,
                     relations=(("coherence_bound_margin", bound_margin, bound_margin >= -MARGIN_TOL),))


def _evaluate_stack(scenario: str, group: tuple[int, int], rank: int | None, entries: list,
                    rng: np.random.Generator, tables: list) -> None:
    """Draw one (n, dim) group of waiting trials as one stack, evaluate it and
    file its table with their trial indices. Each entry is a trial index and
    its position after its shape draws (random._trial_shapes), from which
    random._draw_stack draws the rest of the trial on `rng`. The draws are
    checked once, as the per-object constructors check one instance; a
    failing check names the trial."""
    trials = [trial for trial, _ in entries]
    arrays = _draw_stack(scenario, *group, rank, rng, [position for _, position in entries])
    try:
        if scenario == "pure_pure":
            amps, vecs = arrays
            _check_normalized(amps)
            gram = _detector_gram(vecs)  # checked before the reduced states, as DetectorSet checks them
            table = _pure_pure_stack(_pure_reduced(amps, vecs), amps, gram)
        elif scenario == "mixed_pure":
            rho, vecs = arrays
            table = _mixed_pure_stack(_density(rho), _detector_gram(vecs))
        else:
            rho, rho_d, unitaries = arrays
            rho, rho_d = _density(rho), _density(rho_d)
            _check_unitaries(unitaries)
            table = _mixed_mixed_stack(rho, rho_d, unitaries)
    except ValueError as exc:
        index = getattr(exc, "index", None) or (0,)
        raise type(exc)(f"trial {trials[index[0]]}: {exc}") from exc
    tables.append((trials, table))


def _merged(tables: list[tuple[list[int], _Table]]) -> _Table:
    """The stacks' tables as one, in trial order."""
    order = np.argsort(np.concatenate([trials for trials, _ in tables]))
    stacks = [table for _, table in tables]
    parts = ([getattr(table, part) for table in stacks] for part in ("values", "residuals", "verdicts"))
    merged = ({key: np.concatenate([d[key] for d in dicts])[order] for key in dicts[0]} for dicts in parts)
    return _Table(stacks[0].scenario, *merged)


def _integer(name: str, value) -> int:
    """`value` as a Python int, as operator.index takes it; a bool or a value
    that is not an integer raises ValueError."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def run_campaign(scenario: str, trials: int, seed: int,
                 n: int | Sequence[int] = (2, 3, 4, 5, 6, 7, 8),
                 detector_dim: int | None = None,
                 rank: int | None = None) -> CampaignResult:
    """Evaluate `trials` seeded random instances of one scenario.

    Trial k draws everything from stream(seed, k), so results do not
    depend on execution order and any trial can be replayed in
    isolation; `trials` lies in 1..2^32, so k takes one spawn-key word. `n`
    may be a single path count or a set to draw from, of Python or numpy
    integers in 2..2^32 - 1; detector dimension defaults to a uniform draw
    over n..2n and Ginibre rank over 1..n (detector-state rank over
    1..dim). pure_pure draws no rank, so it rejects any `rank`, as the
    mixed scenarios reject one outside 1..min(n).

    A trial waits in its (n, dim) group as the position stream(seed, k)
    stands at after its shape draws (random._trial_shapes). A group is drawn
    as one stack (random._draw_stack) on the campaign's generator and
    evaluated once its trials would draw STACK_BYTES of raw arrays, and at
    the end, as the README's campaign section describes. Before the first
    draw, the largest trial the options allow, max(n) paths by a detector
    dimension of `detector_dim` or 2 max(n), must fit: pure_pure's composite
    dimension and one trial's arrays. So whether a campaign fits does not
    depend on the seed. A check that fails on the draws raises its usual
    ValueError, prefixed with "trial k: " for the first trial of its stack
    that fails it (the stack's first trial for a check of the whole stack).
    A stack too large to allocate raises MemoryError, which names no trial.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}, expected one of {SCENARIOS}")
    trials, seed = _integer("trials", trials), _integer("seed", seed)
    detector_dim = None if detector_dim is None else _integer("detector dimension", detector_dim)
    rank = None if rank is None else _integer("rank", rank)
    if not 1 <= trials <= 1 << 32:
        raise ValueError(f"trials must lie in 1..2^32, got {trials}")
    try:
        n_choices = (_integer("path counts", n),)
    except ValueError:
        try:
            n_choices = tuple(_integer("path counts", v) for v in n)
        except (TypeError, ValueError):
            raise ValueError(f"path counts must be integers, got {n!r}") from None
    # random._bounded draws the detector dimension over n..2n, a range it can
    # draw only below 2^32
    if not n_choices or any(not 2 <= v < 1 << 32 for v in n_choices):
        raise ValueError(f"path counts must lie in 2..2^32 - 1, got {n_choices!r}")
    if detector_dim is not None and detector_dim < 1:
        raise ValueError(f"detector dimension must be >= 1, got {detector_dim}")
    if scenario == "pure_pure" and rank is not None:
        raise ValueError(f"rank is not read by the pure_pure scenario, got {rank}")
    if rank is not None and not 1 <= rank <= min(n_choices):
        raise ValueError(f"rank must lie in 1..{min(n_choices)}, got {rank}")
    largest = (max(n_choices), detector_dim or 2 * max(n_choices))  # the largest trial any seed may draw
    if scenario == "pure_pure":
        _check_composite(*largest)
    _empty_stack(scenario, *largest, 1)  # raises MemoryError on every seed, or on none
    tables: list = []
    pending: dict[tuple[int, int], list] = {}
    row_bytes: dict[tuple[int, int], int] = {}  # one trial's draws in each group
    rng = stream(seed, 0)  # rejects a negative seed; _draw_stack sets it to each trial's position
    for trial, (group, position) in enumerate(_trial_shapes(seed, trials, n_choices, detector_dim)):
        if group not in row_bytes:
            row_bytes[group] = _trial_bytes(scenario, *group)
        entries = pending.setdefault(group, [])
        entries.append((trial, position))
        if len(entries) * row_bytes[group] >= STACK_BYTES:
            _evaluate_stack(scenario, group, rank, pending.pop(group), rng, tables)
    for group, entries in pending.items():
        _evaluate_stack(scenario, group, rank, entries, rng, tables)
    return CampaignResult(scenario=scenario, trials=trials, seed=seed, table=_merged(tables))
