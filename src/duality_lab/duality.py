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
draws in (n, detector dimension) stacks, evaluate_* on one instance as a
stack of one, sweep_overlap on all its gammas as one stack. Each kernel
states its own relations as columns over its stack, and one tail
(``_tabulate``) adds the duality sum, the PSD margin and the verdicts the
same way, as columns that evaluate_* and sweep_overlap pack into reports.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .interference import scan_visibility, symmetric_detectors
from .linalg import DensityMatrix, _density, _partial_trace_pure, _raise_first, _submatrix_margin, frozen
from .measures import _branch_coherence_bound, _branch_distinguishability, _coherence, _slack, _uqsd
from .random import _haar, draw_trial, stream
from .states import (
    DetectorSet,
    MixedDetectorInteraction,
    MixedQuanton,
    PureQuanton,
    _branch_grams,
    _branches,
    _check_branches,
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
#: bytes of raw draws one (n, dim) group of a campaign holds before it is
#: evaluated as one stack, which caps the stacks and their temporaries. A
#: mixed_mixed trial at n = 6 holds about 10 kB, and its stack needs about five
#: times that while it runs (QR copies, rotated branch kets). On 1000 such
#: trials, budgets of 32 and 128 KiB moved peak RSS by -0.3 and +0.6 MB.
STACK_BYTES = 1 << 16

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
    """A stack's results as columns in report order; `values` holds n, C, D_Q, slack and any visibility."""

    scenario: str
    values: dict[str, np.ndarray]
    residuals: dict[str, np.ndarray]
    verdicts: dict[str, np.ndarray]

    @property
    def passed(self) -> np.ndarray:
        return np.logical_and.reduce(list(self.verdicts.values()))

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
    if q.n != d.n:
        raise ValueError(f"path count mismatch: quanton has {q.n}, detectors have {d.n}")
    return _pure_pure_stack(q.amplitudes[None], d.vectors[None], d.gram[None], include_visibility).reports()[0]


def evaluate_mixed(q: MixedQuanton, d: DetectorSet, include_visibility: bool = False) -> DualityReport:
    """Mixed quanton, pure detectors: slack identity plus duality inequality.

    The reduced state is rho_ij <d_j|d_i> entrywise; C, D_Q, and the
    slack then satisfy C + D_Q + slack = 1 with slack >= 0.
    """
    if q.n != d.n:
        raise ValueError(f"path count mismatch: quanton has {q.n}, detectors have {d.n}")
    return _mixed_pure_stack(q.rho.matrix[None], d.gram[None], include_visibility).reports()[0]


def evaluate_mixed_detector(q: MixedQuanton, m: MixedDetectorInteraction,
                            include_visibility: bool = False) -> DualityReport:
    """Mixed quanton and mixed detector: the most general duality.

    Checks that the reduced coherence stays below its branch-averaged
    bound and that C + D_Q <= 1; ``slack`` records the observed gap.
    """
    if q.n != m.n:
        raise ValueError(f"path count mismatch: quanton has {q.n}, interaction has {m.n}")
    return _mixed_mixed_stack(q.rho.matrix[None], m.rho_d.matrix[None], m.unitaries[None],
                              include_visibility).reports()[0]


def sweep_overlap(n: int, gammas: Sequence[float],
                  quanton: PureQuanton | MixedQuanton) -> list[DualityReport]:
    """Evaluate the uniform-overlap detector family at each gamma, as one stack.

    Along the sweep the coherence is nondecreasing and the
    distinguishability nonincreasing: raising every overlap hides path
    information and restores coherence in lockstep. Visibility is
    included for n <= VISIBILITY_MAX_PATHS.
    """
    gammas = [float(g) for g in gammas]
    if not gammas:
        raise ValueError("gamma grid is empty")
    if any(not 0.0 <= g <= 1.0 for g in gammas):
        raise ValueError(f"gammas must lie in [0, 1], got {gammas!r}")
    if any(a > b for a, b in zip(gammas, gammas[1:])):
        raise ValueError("gammas must be sorted ascending")
    if quanton.n != n:
        raise ValueError(f"quanton has {quanton.n} paths, sweep asked for {n}")
    detectors = [symmetric_detectors(n, gamma) for gamma in gammas]
    grams = np.stack([d.gram for d in detectors])
    include_v = n <= VISIBILITY_MAX_PATHS
    if isinstance(quanton, PureQuanton):
        return _pure_pure_stack(quanton.amplitudes, np.stack([d.vectors for d in detectors]), grams,
                                include_v).reports()
    return _mixed_pure_stack(quanton.rho.matrix, grams, include_v).reports()


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
        _write_csv(path_or_file, CSV_COLUMNS, {"trial": range(self.trials), "seed": itertools.repeat(self.seed),
                                               "scenario": itertools.repeat(self.scenario), **self.table.values,
                                               **self.table.residuals, "passed": self.table.passed})


def _cells(column) -> Iterator[str]:
    """One CSV column's cells: floats with 17 significant digits (they
    round-trip exactly), bools as true/false and None as an empty cell."""
    for value in column.tolist() if isinstance(column, np.ndarray) else column:
        if isinstance(value, float):
            yield f"{value:.17g}"
        elif isinstance(value, bool):
            yield "true" if value else "false"
        else:
            yield "" if value is None else str(value)


def _write_csv(path_or_file, header: Sequence[str], columns: dict) -> None:
    """Write the `header` columns as CSV rows, each formatted as it is written; a missing column is empty."""
    if not hasattr(path_or_file, "write"):
        with open(path_or_file, "w", encoding="utf-8", newline="") as fh:
            return _write_csv(fh, header, columns)
    cells = [_cells(columns[name]) if name in columns else itertools.repeat("") for name in header]
    path_or_file.write(",".join(header) + "\n")
    path_or_file.writelines(",".join(row) + "\n" for row in zip(*cells))


def _tabulate(scenario: str, reduced: np.ndarray, include_visibility: bool, coherence: np.ndarray,
              dq: np.ndarray, slack: np.ndarray, *, saturated: bool = False,
              relations: tuple[tuple[str, np.ndarray, np.ndarray], ...] = (),
              checks: tuple[tuple[str, np.ndarray], ...] = ()) -> _Table:
    """Shared tail of every kernel: the stack's table.

    Every scenario reports the signed duality sum C + D_Q - 1 (held to
    |.| <= TOLERANCE when the state saturates the duality, to <= TOLERANCE
    otherwise) and the PSD margin of its reduced state. `relations` adds the
    kernel's own (residual, values, verdicts) columns and `checks` its
    verdicts that carry no residual; their order is the report order. A
    visibility scan that fails keeps the entry's index, as the stacked checks do.
    """
    # C and D_Q passed _clamp_unit, which rejects NaN and inf; the slack did not
    _raise_first(~np.isfinite(slack), ValueError, lambda i: f"slack is not finite: {float(slack[i])!r}")
    duality_sum = coherence + dq - 1.0
    psd_margin = _submatrix_margin(reduced)
    values = {"n": np.full(len(reduced), reduced.shape[-1]), "coherence": coherence, "distinguishability": dq,
              "slack": slack}
    if include_visibility:
        visibility = []
        for i, rho in enumerate(reduced):
            try:
                visibility.append(scan_visibility(MixedQuanton(rho=DensityMatrix(frozen(rho)))).visibility)
            except ValueError as exc:
                exc.index = (i,)
                raise
        values["visibility"] = np.array(visibility)
    residuals = {"duality_sum": duality_sum, **{key: value for key, value, _ in relations},
                 "psd_margin_min": psd_margin}
    verdicts = {"duality_sum": (np.abs(duality_sum) if saturated else duality_sum) <= TOLERANCE,
                **{key: ok for key, _, ok in relations}, "psd_margin_min": psd_margin >= -MARGIN_TOL,
                **dict(checks)}
    return _Table(scenario, values, residuals, verdicts)


def _pure_pure_stack(amps: np.ndarray, vecs: np.ndarray, gram: np.ndarray,
                     include_visibility: bool = False) -> _Table:
    """pure_pure from normalized amplitudes, unit detector vectors and their
    Gram: C + D_Q = 1, with no slack. The joint state is never formed: its
    partial trace is taken from the (path, detector) factors directly."""
    _check_composite(*vecs.shape[-2:])
    reduced = _density(_partial_trace_pure(amps[..., :, None] * vecs))
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
    carry weight zero and add exact zeros to the branch averages."""
    reduced = _density(rho * _overlap_factors(unitaries, rho_d))
    coherence = _coherence(reduced)
    weights, kets = _branches(rho_d)
    grams = _branch_grams(unitaries, kets)
    _check_branches(weights, grams)
    dq = _branch_distinguishability(rho.diagonal(axis1=-2, axis2=-1).real, weights, grams)
    bound_margin = _branch_coherence_bound(rho, weights, grams) - coherence
    return _tabulate("mixed_mixed", reduced, include_visibility, coherence, dq, 1.0 - coherence - dq,
                     relations=(("coherence_bound_margin", bound_margin, bound_margin >= -MARGIN_TOL),))


def _held_bytes(draws: tuple[np.ndarray, ...]) -> int:
    """Memory one trial's draws hold while they wait: data and array headers."""
    return sum(sys.getsizeof(a) for a in draws)


def _evaluate_stack(scenario: str, entries: list, tables: list) -> None:
    """Evaluate one (n, dim) group of drawn trials as one stack and file its
    table with their trial indices. The draws are checked once, as the
    per-object constructors check one instance; a failing check names the trial."""
    trials = [trial for trial, _ in entries]
    stacks = [np.stack(parts) for parts in zip(*(draws for _, draws in entries))]
    entries.clear()
    try:
        if scenario == "pure_pure":
            amps, vecs = stacks
            _check_normalized(amps)
            table = _pure_pure_stack(amps, vecs, _detector_gram(vecs))
        elif scenario == "mixed_pure":
            rho, vecs = stacks
            table = _mixed_pure_stack(_density(rho), _detector_gram(vecs))
        else:
            rho, rho_d, z = stacks
            rho, rho_d, unitaries = _density(rho), _density(rho_d), _haar(z)
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


def run_campaign(scenario: str, trials: int, seed: int,
                 n: int | Sequence[int] = (2, 3, 4, 5, 6, 7, 8),
                 detector_dim: int | None = None,
                 rank: int | None = None) -> CampaignResult:
    """Evaluate `trials` seeded random instances of one scenario.

    Trial k draws everything from stream(seed, k), so results do not
    depend on execution order and any trial can be replayed in
    isolation. `n` may be a single path count or a set to draw from;
    detector dimension defaults to a uniform draw over n..2n and Ginibre
    rank over 1..n (detector-state rank over 1..dim). pure_pure draws no
    rank, so it rejects any `rank`, as the mixed scenarios reject one
    outside 1..min(n).

    Trials are drawn in order and held as raw arrays, grouped by (n, dim).
    A group is evaluated as one stack once it alone holds STACK_BYTES of
    draws, and what is left of it at the end, so the draws held stay below
    STACK_BYTES per group (n+1 groups per path count, one with detector_dim).
    A check that fails raises its usual ValueError, prefixed with "trial k: "
    for the first trial of its stack that fails it (the stack's first trial
    for a check of the whole stack, such as the composite dimension).
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}, expected one of {SCENARIOS}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n_choices = (n,) if isinstance(n, int) else tuple(int(v) for v in n)
    if not n_choices or any(v < 2 for v in n_choices):
        raise ValueError(f"path counts must all be >= 2, got {n_choices!r}")
    if detector_dim is not None and detector_dim < 1:
        raise ValueError(f"detector dimension must be >= 1, got {detector_dim}")
    if scenario == "pure_pure" and rank is not None:
        raise ValueError(f"rank is not read by the pure_pure scenario, got {rank}")
    if rank is not None and not 1 <= rank <= min(n_choices):
        raise ValueError(f"rank must lie in 1..{min(n_choices)}, got {rank}")
    tables: list = []
    pending: dict[tuple[int, int], list] = {}
    for trial in range(trials):
        n_t, dim, draws = draw_trial(scenario, stream(seed, trial), n_choices, detector_dim, rank)
        entries = pending.setdefault((n_t, dim), [])
        entries.append((trial, draws))
        # every trial of a group holds arrays of the same shapes
        if len(entries) * _held_bytes(draws) >= STACK_BYTES:
            _evaluate_stack(scenario, pending.pop((n_t, dim)), tables)
    for entries in pending.values():
        _evaluate_stack(scenario, entries, tables)
    return CampaignResult(scenario=scenario, trials=trials, seed=seed, table=_merged(tables))
