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
(``_reports``) adds the duality sum, the PSD margin and the verdicts the
same way and packs the rows into reports.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Sequence

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

CSV_COLUMNS = (
    "trial",
    "seed",
    "scenario",
    "n",
    "coherence",
    "distinguishability",
    "slack",
    "duality_sum",
    "slack_identity",
    "coherence_bound_margin",
    "psd_margin_min",
    "passed",
)


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
        return {
            "scenario": self.scenario,
            "n": self.n,
            "coherence": self.coherence,
            "distinguishability": self.distinguishability,
            "slack": self.slack,
            "visibility": self.visibility,
            "relation_residuals": {k: float(v) for k, v in self.relation_residuals.items()},
            "verdicts": {k: bool(v) for k, v in self.verdicts.items()},
            "passed": bool(self.passed),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def csv_cells(self) -> dict[str, str]:
        """CSV cells keyed by column name: floats with 17 significant
        digits (they round-trip exactly), an empty cell for a visibility
        or residual the report lacks, and passed as true/false."""
        cells = {
            "scenario": self.scenario,
            "n": str(self.n),
            "coherence": f"{self.coherence:.17g}",
            "distinguishability": f"{self.distinguishability:.17g}",
            "slack": f"{self.slack:.17g}",
            "visibility": "" if self.visibility is None else f"{self.visibility:.17g}",
        }
        for key in ("duality_sum", "slack_identity", "coherence_bound_margin", "psd_margin_min"):
            value = self.relation_residuals.get(key)
            cells[key] = "" if value is None else f"{value:.17g}"
        cells["passed"] = "true" if self.passed else "false"
        return cells


def evaluate_pure(q: PureQuanton, d: DetectorSet, include_visibility: bool = False) -> DualityReport:
    """Entangle, trace the detector out, and check C + D_Q = 1.

    Coherence is read off the reduced state produced by the actual
    partial trace, so the equality genuinely tests the numerics rather
    than an algebraic shortcut.
    """
    if q.n != d.n:
        raise ValueError(f"path count mismatch: quanton has {q.n}, detectors have {d.n}")
    return _pure_pure_stack(q.amplitudes[None], d.vectors[None], d.gram[None], include_visibility)[0]


def evaluate_mixed(q: MixedQuanton, d: DetectorSet, include_visibility: bool = False) -> DualityReport:
    """Mixed quanton, pure detectors: slack identity plus duality inequality.

    The reduced state is rho_ij <d_j|d_i> entrywise; C, D_Q, and the
    slack then satisfy C + D_Q + slack = 1 with slack >= 0.
    """
    if q.n != d.n:
        raise ValueError(f"path count mismatch: quanton has {q.n}, detectors have {d.n}")
    return _mixed_pure_stack(q.rho.matrix[None], d.gram[None], include_visibility)[0]


def evaluate_mixed_detector(q: MixedQuanton, m: MixedDetectorInteraction,
                            include_visibility: bool = False) -> DualityReport:
    """Mixed quanton and mixed detector: the most general duality.

    Checks that the reduced coherence stays below its branch-averaged
    bound and that C + D_Q <= 1; ``slack`` records the observed gap.
    """
    if q.n != m.n:
        raise ValueError(f"path count mismatch: quanton has {q.n}, interaction has {m.n}")
    return _mixed_mixed_stack(q.rho.matrix[None], m.rho_d.matrix[None], m.unitaries[None],
                              include_visibility)[0]


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
        return _pure_pure_stack(quanton.amplitudes, np.stack([d.vectors for d in detectors]), grams, include_v)
    return _mixed_pure_stack(quanton.rho.matrix, grams, include_v)


@dataclass(frozen=True)
class CampaignResult:
    """Per-trial reports plus order-independent aggregate statistics."""

    scenario: str
    trials: int
    seed: int
    reports: tuple[DualityReport, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)

    def violations(self) -> list[int]:
        """Trial indices whose reports failed; replay with stream(seed, index)."""
        return [i for i, r in enumerate(self.reports) if not r.passed]

    def aggregate(self) -> dict:
        abs_residuals: dict[str, list[float]] = {}
        for r in self.reports:
            for k, v in r.relation_residuals.items():
                abs_residuals.setdefault(k, []).append(abs(v))
        violating = self.violations()
        out = {
            "scenario": self.scenario,
            "trials": self.trials,
            "seed": self.seed,
            "violations": len(violating),
            "violating_trials": violating[:16],
            "max_abs_residuals": {k: max(v) for k, v in abs_residuals.items()},
            "mean_abs_residuals": {k: float(np.mean(v)) for k, v in abs_residuals.items()},
            "max_duality_sum": max(r.relation_residuals["duality_sum"] for r in self.reports),
            "min_slack": min(r.slack for r in self.reports),
            "min_psd_margin": min(r.relation_residuals["psd_margin_min"] for r in self.reports),
            "passed": not violating,
        }
        if self.scenario == "mixed_mixed":
            out["min_coherence_bound_margin"] = min(
                r.relation_residuals["coherence_bound_margin"] for r in self.reports
            )
        return out

    def to_csv(self, path_or_file) -> None:
        """One row per trial, fixed column order, 17 significant digits."""
        if hasattr(path_or_file, "write"):
            self._write_csv(path_or_file)
        else:
            with open(path_or_file, "w", encoding="utf-8", newline="") as fh:
                self._write_csv(fh)

    def _write_csv(self, fh) -> None:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        seed = str(self.seed)
        for i, r in enumerate(self.reports):
            cells = {"trial": str(i), "seed": seed, **r.csv_cells()}
            fh.write(",".join(cells[c] for c in CSV_COLUMNS) + "\n")


def _reports(scenario: str, reduced: np.ndarray, include_visibility: bool, coherence: np.ndarray,
             dq: np.ndarray, slack: np.ndarray, *, saturated: bool = False,
             relations: tuple[tuple[str, np.ndarray, np.ndarray], ...] = (),
             checks: tuple[tuple[str, np.ndarray], ...] = ()) -> list[DualityReport]:
    """Shared tail of every kernel: one report per entry of a stack.

    Every scenario reports the signed duality sum C + D_Q - 1 (held to
    |.| <= TOLERANCE when the state saturates the duality, to <= TOLERANCE
    otherwise) and the PSD margin of its reduced state. `relations` adds the
    kernel's own (residual, values, verdicts) columns and `checks` its
    verdicts that carry no residual; their order is the report order. Every
    column is an array over the stack; the loop only scans the visibility of
    an entry's reduced state, if asked for, and packs its row into a report.
    A check that fails keeps the entry's index, as the stacked checks do.
    """
    # C and D_Q passed _clamp_unit, which rejects NaN and inf; the slack did not
    _raise_first(~np.isfinite(slack), ValueError, lambda i: f"slack is not finite: {float(slack[i])!r}")
    duality_sum = coherence + dq - 1.0
    psd_margin = _submatrix_margin(reduced)
    residuals = {"duality_sum": duality_sum, **{key: value for key, value, _ in relations},
                 "psd_margin_min": psd_margin}
    verdicts = {"duality_sum": (np.abs(duality_sum) if saturated else duality_sum) <= TOLERANCE,
                **{key: ok for key, _, ok in relations}, "psd_margin_min": psd_margin >= -MARGIN_TOL,
                **dict(checks)}
    columns = (coherence, dq, slack, *residuals.values(), *verdicts.values())
    reports = []
    for i, (c, d, s, *row) in enumerate(zip(*(column.tolist() for column in columns))):
        try:
            visibility = (scan_visibility(MixedQuanton(rho=DensityMatrix(frozen(reduced[i])))).visibility
                          if include_visibility else None)
        except ValueError as exc:
            exc.index = (i,)
            raise
        reports.append(DualityReport(scenario=scenario, n=reduced.shape[-1], coherence=c, distinguishability=d,
                                     slack=s, visibility=visibility,
                                     relation_residuals=dict(zip(residuals, row)),
                                     verdicts=dict(zip(verdicts, row[len(residuals):]))))
    return reports


def _pure_pure_stack(amps: np.ndarray, vecs: np.ndarray, gram: np.ndarray,
                     include_visibility: bool = False) -> list[DualityReport]:
    """pure_pure from normalized amplitudes, unit detector vectors and their
    Gram: C + D_Q = 1, with no slack. The joint state is never formed: its
    partial trace is taken from the (path, detector) factors directly."""
    _check_composite(*vecs.shape[-2:])
    reduced = _density(_partial_trace_pure(amps[..., :, None] * vecs))
    coherence = _coherence(reduced)
    return _reports("pure_pure", reduced, include_visibility, coherence, _uqsd(np.abs(amps) ** 2, gram),
                    np.zeros_like(coherence), saturated=True)


def _mixed_pure_stack(rho: np.ndarray, gram: np.ndarray, include_visibility: bool = False) -> list[DualityReport]:
    """mixed_pure from density matrices and detector Grams: the reduced state is
    rho_ij <d_j|d_i>, and C + D_Q + slack = 1 with slack >= 0."""
    reduced = _density(rho * gram.conj())
    coherence = _coherence(reduced)
    dq = _uqsd(rho.diagonal(axis1=-2, axis2=-1).real, gram)
    slack = _slack(rho, gram)
    identity = coherence + dq + slack - 1.0
    return _reports("mixed_pure", reduced, include_visibility, coherence, dq, slack,
                    relations=(("slack_identity", identity, np.abs(identity) <= TOLERANCE),),
                    checks=(("slack_nonnegative", slack >= -MARGIN_TOL),))


def _mixed_mixed_stack(rho: np.ndarray, rho_d: np.ndarray, unitaries: np.ndarray,
                       include_visibility: bool = False) -> list[DualityReport]:
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
    return _reports("mixed_mixed", reduced, include_visibility, coherence, dq, 1.0 - coherence - dq,
                    relations=(("coherence_bound_margin", bound_margin, bound_margin >= -MARGIN_TOL),))


def _held_bytes(draws: tuple[np.ndarray, ...]) -> int:
    """Memory one trial's draws hold while they wait: data and array headers."""
    return sum(sys.getsizeof(a) for a in draws)


def _evaluate_stack(scenario: str, entries: list, reports: list) -> None:
    """Evaluate one (n, dim) group of drawn trials as one stack and file the
    reports under their trial indices. The draws are checked once, as the
    per-object constructors check one instance; a failing check names the trial."""
    trials = [trial for trial, _ in entries]
    stacks = [np.stack(parts) for parts in zip(*(draws for _, draws in entries))]
    entries.clear()
    try:
        if scenario == "pure_pure":
            amps, vecs = stacks
            _check_normalized(amps)
            stacked = _pure_pure_stack(amps, vecs, _detector_gram(vecs))
        elif scenario == "mixed_pure":
            rho, vecs = stacks
            stacked = _mixed_pure_stack(_density(rho), _detector_gram(vecs))
        else:
            rho, rho_d, z = stacks
            rho, rho_d, unitaries = _density(rho), _density(rho_d), _haar(z)
            _check_unitaries(unitaries)
            stacked = _mixed_mixed_stack(rho, rho_d, unitaries)
    except ValueError as exc:
        index = getattr(exc, "index", None) or (0,)
        raise type(exc)(f"trial {trials[index[0]]}: {exc}") from exc
    for trial, report in zip(trials, stacked):
        reports[trial] = report


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
    reports: list = [None] * trials
    pending: dict[tuple[int, int], list] = {}
    for trial in range(trials):
        n_t, dim, draws = draw_trial(scenario, stream(seed, trial), n_choices, detector_dim, rank)
        entries = pending.setdefault((n_t, dim), [])
        entries.append((trial, draws))
        # every trial of a group holds arrays of the same shapes
        if len(entries) * _held_bytes(draws) >= STACK_BYTES:
            _evaluate_stack(scenario, pending.pop((n_t, dim)), reports)
    for entries in pending.values():
        _evaluate_stack(scenario, entries, reports)
    return CampaignResult(scenario=scenario, trials=trials, seed=seed, reports=tuple(reports))
