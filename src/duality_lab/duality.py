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
arrays (``_*_stack``), and one function (_kernel) picks it from the scenario
and the arrays a campaign draws, and forms every detector Gram by one
product (states._gram): of the detector vectors, or of each spectral
branch's path kets, from which the mixed_mixed kernel takes its reduced
state, D_Q and coherence bound alike. A campaign calls it on each stack that
random._stacks yields; evaluate_* and sweep_overlap call it through
_instance_table, which checks the path count, with one instance as a
stack of one or a sweep's gammas as one stack, their vectors factored by
one batched eigh. `verify` calls it on its one instance as a stack of one:
a seeded one passes the amplitudes, detector vectors or branches it draws
(random._pure_quanton_draw, _pure_detector_draw, _mixed_detector_draw) and
builds no PureQuanton, DetectorSet or interaction;
evaluate_mixed_detector passes an interaction's spectral branches
(states._branches). The fringe runs the pure_pure kernel on the state it
scans, and the two- and three-slit checks read C and D_Q from
evaluate_pure. Input from outside is checked where it enters (the
constructors, validate_density, _gram_factors); the arrays the program
builds, a campaign's or `verify`'s draws, a sweep's factored vectors and
an interaction's spectral branches, are final by construction, and a
campaign's draws are checked only for NaN or Inf. So every kernel uses its
detector Grams, or branch weights and Grams, unchecked, and checks what it
derives: the reduced
states and the finiteness of C, D_Q and the slack. Each kernel states its
own relations as columns over its stack, and one tail (``_tabulate``) adds
the duality sum, the PSD margin and the verdicts the same way. Every command writes its CSV from
these columns (_Table.columns); evaluate_* and sweep_overlap pack them into
reports for their callers. Every output file is opened by _rewrite, which
writes over it in place and cuts it to length, rather than truncating it,
and writes each piece of text whole with no buffer; every JSON report and
aggregate is the text of _json, which equals json.dumps(value, indent=2).
"""

from __future__ import annotations

import contextlib
import functools
import math
import operator
import os
import stat
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
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
from .random import _stacks
from .states import (
    DetectorSet,
    MixedDetectorInteraction,
    MixedQuanton,
    PureQuanton,
    _branches,
    _check_composite,
    _gram,
    _overlap_average,
)

TOLERANCE = 1e-9
MARGIN_TOL = 1e-10
SCENARIOS = ("pure_pure", "mixed_pure", "mixed_mixed")
VISIBILITY_MAX_PATHS = 3  # the fringe correspondences of the two- and three-slit families

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
#: memory: a 4096-row fringe holds a quarter of its intensity cells at a
#: time. Its phase cells are text formatted once per grid size in a process
#: and kept for the last size (interference._phase_cells, 0.31 MB at 4096).
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
        return _json(self.to_dict())


def _json(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2) of dicts with str keys, lists, tuples, str,
    int, float, bool and None, which the stdlib writes with its pure-Python
    encoder whenever it indents: strings by the same ASCII escaper, numbers
    by the same reprs, and NaN and the infinities by the same names."""
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value in (math.inf, -math.inf):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    if isinstance(value, dict):
        inner = indent + "  "
        items = ",".join(f"{inner}{encode_basestring_ascii(key)}: {_json(item, inner)}" for key, item in value.items())
        return "{" + items + indent + "}" if value else "{}"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, (list, tuple)):
        inner = indent + "  "
        return "[" + ",".join(inner + _json(item, inner) for item in value) + indent + "]" if value else "[]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


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
    return _instance_table(q, include_visibility, *_stack_of_one(d)).reports()[0]


def evaluate_mixed(q: MixedQuanton, d: DetectorSet, include_visibility: bool = False) -> DualityReport:
    """Mixed quanton, pure detectors: slack identity plus duality inequality.

    The reduced state is rho_ij <d_j|d_i> entrywise; C, D_Q, and the
    slack then satisfy C + D_Q + slack = 1 with slack >= 0.
    """
    return _instance_table(q, include_visibility, *_stack_of_one(d)).reports()[0]


def evaluate_mixed_detector(q: MixedQuanton, m: MixedDetectorInteraction,
                            include_visibility: bool = False) -> DualityReport:
    """Mixed quanton and mixed detector: the most general duality.

    Checks that the reduced coherence stays below its branch-averaged
    bound and that C + D_Q <= 1; ``slack`` records the observed gap.
    """
    return _instance_table(q, include_visibility, *_stack_of_one(m)).reports()[0]


def _stack_of_one(d: DetectorSet | MixedDetectorInteraction) -> tuple[np.ndarray, ...]:
    """A detector set's vectors, or an interaction's spectral branch weights
    and path kets U_i|d_k> (_branches), as a stack of one."""
    if isinstance(d, MixedDetectorInteraction):
        return tuple(array[None] for array in _branches(d))
    return (d.vectors[None],)


def _instance_table(q: PureQuanton | MixedQuanton, include_visibility: bool, *detector: np.ndarray) -> _Table:
    """The one entry from a quanton to _kernel, over a stack of detectors given
    as arrays, checked by their constructors or, for a sweep's factored
    vectors, final by construction: pure detectors as their (k, n, dim)
    vectors, mixed detectors as their (k, r) branch weights and C-contiguous
    (k, r, n, dim) path kets, r = dim for an interaction's. evaluate_* pass
    a stack of one, _stack_of_one's arrays, and _sweep_table the vectors of
    all its gammas; `verify` calls _kernel itself. The quanton broadcasts
    over the stack; the arrays given and the quanton's type pick the
    scenario."""
    scenario = "mixed_mixed" if len(detector) == 2 else "pure_pure" if isinstance(q, PureQuanton) else "mixed_pure"
    n = detector[-1].shape[-2]
    if q.n != n:
        other = "interaction has" if scenario == "mixed_mixed" else "detectors have"
        raise ValueError(f"path count mismatch: quanton has {q.n}, {other} {n}")
    quanton = q.amplitudes if scenario == "pure_pure" else q.rho.matrix
    return _kernel(scenario, quanton, *detector, include_visibility=include_visibility)


def sweep_overlap(n: int, gammas: Sequence[float],
                  quanton: PureQuanton | MixedQuanton) -> list[DualityReport]:
    """Evaluate the uniform-overlap detector family at each gamma, as one stack.

    Along the sweep the coherence is nondecreasing and the
    distinguishability nonincreasing: raising every overlap hides path
    information and restores coherence in lockstep. Visibility is
    included for n <= VISIBILITY_MAX_PATHS. `sweep` writes _sweep_table's columns.
    """
    return _sweep_table(n, gammas, quanton).reports()


def _sweep_table(n: int, gammas: Sequence[float], quanton: PureQuanton | MixedQuanton) -> _Table:
    """sweep_overlap's table over the grid interference._gamma_grid checks: the
    uniform-overlap Grams of every gamma are factored by one batched eigh
    (_gram_factors, which checks the Grams it is given), and their vectors,
    unit by construction and not checked again, go through _instance_table
    as one stack. _instance_table checks the quanton's path count. No
    DetectorSet is built."""
    vectors = _gram_factors(_uniform_overlap_grams(n, gammas, "gammas"))
    return _instance_table(quanton, n <= VISIBILITY_MAX_PATHS, vectors)


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


#: open(path, "wb")'s flags less O_TRUNC: os.open adds O_CLOEXEC itself, and
#: Windows needs O_BINARY
_REWRITE_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


class _Output:
    """An output file descriptor that takes str: each write goes out as UTF-8
    in full, at once, with no buffer between it and the file."""

    def __init__(self, fd: int):
        self.fd = fd

    def write(self, text: str) -> None:
        data = memoryview(text.encode("utf-8"))
        while data:  # a pipe or FIFO may take part of a write
            data = data[os.write(self.fd, data):]


@contextlib.contextmanager
def _rewrite(path):
    """Open `path` binary and unbuffered, with open(path, "wb")'s flags and
    mode but no truncation, and yield an _Output that writes each str it is
    given as UTF-8: the file is written over in place, and on exit a regular
    file is cut to what was written. On ext4 (auto_da_alloc), truncating a
    non-empty file frees its blocks and makes its close flush the new data,
    which cost a `verify` more than its kernel; writing in place does
    neither. Opening, writing and cutting a 485 B report this way took 6 us,
    against 9 us through a binary file object and 14 us through a text one
    (best of 5 x 200, in process, 2-vCPU x86-64 host). An exception
    mid-write leaves the new head and no old tail; a process killed
    mid-write may leave both. Devices, pipes and FIFOs are opened as open
    opens them, and none is cut (/dev/null cannot be)."""
    fd = os.open(path, _REWRITE_FLAGS, 0o666)
    try:
        try:
            yield _Output(fd)
        finally:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
    finally:
        os.close(fd)


def _write_csv(path_or_file, header: Sequence[str], columns: dict, comment: str | None = None) -> None:
    """Write an optional `# comment` line, then the `header` columns as CSV rows,
    each formatted by one printf template, to an open file or to a path,
    which _rewrite opens. A column is one of:

    - None or missing: an empty cell;
    - an int or str constant, such as a campaign's seed: a literal in the
      template;
    - an int array: %d; a float array: %.17g (17 significant digits
      round-trip exactly); a bool array: true/false;
    - a tuple of str, cells formatted beforehand: %s.

    The array and tuple columns must have one length, or ValueError names
    each one's before any path is opened. Rows go out CSV_BLOCK_ROWS at a
    time: a block is sliced from the columns and formatted by one % on the
    template repeated once per row, then written in one call."""
    fields, cells, lengths = [], [], {}
    for name in header:
        column = columns.get(name)
        if column is None or isinstance(column, (int, str)):
            fields.append("" if column is None else str(column).replace("%", "%%"))
            continue
        if isinstance(column, tuple):
            fields.append("%s")
        elif column.dtype.kind == "b":
            fields.append("%s")
            column = np.where(column, "true", "false")
        else:
            fields.append("%.17g" if column.dtype.kind == "f" else "%d")
        cells.append(column)
        lengths[name] = len(column)
    if len(set(lengths.values())) > 1:
        raise ValueError(f"CSV columns differ in length: {lengths}")
    template = ",".join(fields) + "\n"
    rows = max(lengths.values(), default=0)
    with (contextlib.nullcontext(path_or_file) if hasattr(path_or_file, "write") else _rewrite(path_or_file)) as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        fh.write(",".join(header) + "\n")
        for start in range(0, rows, CSV_BLOCK_ROWS):
            count = min(CSV_BLOCK_ROWS, rows - start)
            # the block's cells in row order; no per-row tuple is built
            flat = [None] * (count * len(cells))
            for j, cell in enumerate(cells):
                block = cell[start:start + count]
                flat[j::len(cells)] = block if isinstance(block, tuple) else block.tolist()
            fh.write(template * count % tuple(flat))


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


def _mixed_mixed_stack(rho: np.ndarray, weights: np.ndarray, grams: np.ndarray,
                       include_visibility: bool = False) -> _Table:
    """mixed_mixed from density matrices, branch weights (k,) and branch Grams
    (k, n, n): C stays below its branch-average bound, and the slack is the
    gap 1 - C - D_Q. The weights and Grams are used as _mixed_pure_stack uses
    its detector Grams, unchecked: a campaign's and `verify`'s branches are
    drawn final (random._detector_branches), and an interaction's are factored
    from its validated rho_d and checked unitaries (states._branches). An
    interaction's entry keeps all dim spectral branches, a campaign's entry
    its r drawn ones padded to dim, and `verify`'s its r drawn ones; those
    below the weight cutoff, and the padding, carry weight zero and add exact
    zeros to the reduced state and the branch averages. The reduced state is
    rho_ij sum_k r_k <d_kj|d_ki> (_overlap_average), as
    reduce_quanton_mixed_detector forms it, and passes _density."""
    reduced = _density(rho * _overlap_average(weights, grams))
    coherence = _coherence(reduced)
    dq = _branch_distinguishability(rho.diagonal(axis1=-2, axis2=-1).real, weights, grams)
    bound_margin = _branch_coherence_bound(rho, weights, grams) - coherence
    return _tabulate("mixed_mixed", reduced, include_visibility, coherence, dq, 1.0 - coherence - dq,
                     relations=(("coherence_bound_margin", bound_margin, bound_margin >= -MARGIN_TOL),))


def _kernel(scenario: str, quanton: np.ndarray, *detector: np.ndarray, include_visibility: bool = False) -> _Table:
    """The scenario's kernel on the arrays a campaign draws, stacked, or on
    `verify`'s one instance as a stack of one: the amplitudes or density
    matrices, then the detector vectors, or the branch weights (k, r) and
    path kets U_i|d_k> (k, r, n, dim), r = dim in a campaign. Detector Grams
    are formed here, by states._gram: of the detector vectors, or, for
    mixed_mixed, of each spectral branch's path kets, as branch_overlaps
    forms them."""
    if scenario == "pure_pure":
        return _pure_pure_stack(_pure_reduced(quanton, *detector), quanton, _gram(*detector), include_visibility)
    if scenario == "mixed_pure":
        return _mixed_pure_stack(quanton, _gram(*detector), include_visibility)
    return _mixed_mixed_stack(quanton, detector[0], _gram(detector[1]), include_visibility)


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

    The trials are drawn in (n, dim) stacks (random._stacks), and each
    stack is evaluated by its scenario's kernel (_kernel). Before the first
    draw, the largest trial the options allow, max(n) paths by a detector
    dimension of `detector_dim` or 2 max(n), must fit: pure_pure's composite
    dimension and one trial's arrays. So whether a campaign fits does not
    depend on the seed. The drawn arrays are final by construction: unit
    amplitudes and vectors, PSD unit-trace states, and mixed detectors as
    branch weights that sum to one and the columns of Haar isometries. Their
    one check is for NaN or Inf entries, a plain ValueError; the kernels
    check what they derive. A check that fails on the draws raises its usual
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
    if scenario == "pure_pure":  # the largest composite any seed may draw
        _check_composite(max(n_choices), detector_dim or 2 * max(n_choices))
    tables = []
    for indices, arrays in _stacks(scenario, seed, trials, n_choices, detector_dim, rank):
        try:
            finite = np.logical_and.reduce([np.isfinite(a).reshape(len(a), -1).all(axis=-1) for a in arrays])
            _raise_first(~finite, ValueError, lambda i: "drawn arrays contain NaN or Inf entries")
            tables.append((indices, _kernel(scenario, *arrays)))
        except ValueError as exc:
            index = getattr(exc, "index", None) or (0,)
            raise type(exc)(f"trial {indices[index[0]]}: {exc}") from exc
        del arrays  # before the next stack is drawn
    return CampaignResult(scenario=scenario, trials=trials, seed=seed, table=_merged(tables))
