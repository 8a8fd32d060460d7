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
stack of one, sweep_overlap on all its gammas as one stack.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .interference import scan_visibility, symmetric_detectors
from .linalg import DensityMatrix, _density, _partial_trace_pure, _submatrix_margin, frozen
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


def _report(scenario: str, n: int, coherence: float, dq: float, slack: float, psd_margin: float,
            visibility: float | None, *, saturated: bool = False,
            relations: tuple[tuple[str, float, bool], ...] = (),
            checks: tuple[tuple[str, bool], ...] = ()) -> DualityReport:
    """Shared tail of every evaluation path: one report from Python floats.

    Every scenario reports the signed duality sum C + D_Q - 1 (held to
    |.| <= TOLERANCE when the state saturates the duality, to <= TOLERANCE
    otherwise) and the PSD margin of its reduced state. `relations` adds the
    scenario's own (residual, value, verdict) triples and `checks` its
    verdicts that carry no residual; their order is the report order.
    """
    for name, value in (("coherence", coherence), ("distinguishability", dq), ("slack", slack)):
        if not math.isfinite(value):
            raise ValueError(f"{name} is not finite: {value!r}")
    duality_sum = coherence + dq - 1.0
    residuals = {"duality_sum": duality_sum}
    verdicts = {"duality_sum": (abs(duality_sum) if saturated else duality_sum) <= TOLERANCE}
    for key, value, ok in relations:
        residuals[key] = value
        verdicts[key] = ok
    residuals["psd_margin_min"] = psd_margin
    verdicts["psd_margin_min"] = psd_margin >= -MARGIN_TOL
    verdicts.update(checks)
    return DualityReport(
        scenario=scenario,
        n=n,
        coherence=coherence,
        distinguishability=dq,
        slack=slack,
        visibility=visibility,
        relation_residuals=residuals,
        verdicts=verdicts,
    )


def _pure_pure_report(n: int, coherence: float, dq: float, psd_margin: float,
                      visibility: float | None) -> DualityReport:
    return _report("pure_pure", n, coherence, dq, 0.0, psd_margin, visibility, saturated=True)


def _mixed_pure_report(n: int, coherence: float, dq: float, slack: float, psd_margin: float,
                       visibility: float | None) -> DualityReport:
    slack_identity = coherence + dq + slack - 1.0
    return _report("mixed_pure", n, coherence, dq, slack, psd_margin, visibility,
                   relations=(("slack_identity", slack_identity, abs(slack_identity) <= TOLERANCE),),
                   checks=(("slack_nonnegative", slack >= -MARGIN_TOL),))


def _mixed_mixed_report(n: int, coherence: float, dq: float, bound: float, psd_margin: float,
                        visibility: float | None) -> DualityReport:
    bound_margin = bound - coherence
    return _report("mixed_mixed", n, coherence, dq, 1.0 - coherence - dq, psd_margin, visibility,
                   relations=(("coherence_bound_margin", bound_margin, bound_margin >= -MARGIN_TOL),))


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


def _stack_reports(make, reduced: np.ndarray, include_visibility: bool,
                   *columns: np.ndarray) -> list[DualityReport]:
    """make(n, *row, visibility) for each entry of a stack, from per-entry
    arrays and, if asked for, the scan_visibility of its reduced state. A
    check that fails keeps the entry's index, as the stacked checks do."""
    reports = []
    for i, row in enumerate(zip(*(column.tolist() for column in columns))):
        try:
            visibility = (scan_visibility(MixedQuanton(rho=DensityMatrix(frozen(reduced[i])))).visibility
                          if include_visibility else None)
            reports.append(make(reduced.shape[-1], *row, visibility))
        except ValueError as exc:
            exc.index = (i,)
            raise
    return reports


def _pure_pure_stack(amps: np.ndarray, vecs: np.ndarray, gram: np.ndarray,
                     include_visibility: bool = False) -> list[DualityReport]:
    """pure_pure from normalized amplitudes, unit detector vectors and their
    Gram. The joint state is never formed: its partial trace is taken from
    the (path, detector) factors directly."""
    _check_composite(*vecs.shape[-2:])
    reduced = _density(_partial_trace_pure(amps[..., :, None] * vecs))
    return _stack_reports(_pure_pure_report, reduced, include_visibility, _coherence(reduced),
                          _uqsd(np.abs(amps) ** 2, gram), _submatrix_margin(reduced))


def _mixed_pure_stack(rho: np.ndarray, gram: np.ndarray, include_visibility: bool = False) -> list[DualityReport]:
    """mixed_pure from density matrices and detector Grams: the reduced state is rho_ij <d_j|d_i>."""
    reduced = _density(rho * gram.conj())
    return _stack_reports(_mixed_pure_report, reduced, include_visibility, _coherence(reduced),
                          _uqsd(rho.diagonal(axis1=-2, axis2=-1).real, gram), _slack(rho, gram),
                          _submatrix_margin(reduced))


def _mixed_mixed_stack(rho: np.ndarray, rho_d: np.ndarray, unitaries: np.ndarray,
                       include_visibility: bool = False) -> list[DualityReport]:
    """mixed_mixed from density matrices, detector states and path unitaries. Every
    entry keeps all dim spectral branches; those below the weight cutoff carry
    weight zero and add exact zeros to the branch averages."""
    reduced = _density(rho * _overlap_factors(unitaries, rho_d))
    coherence = _coherence(reduced)
    weights, kets = _branches(rho_d)
    grams = _branch_grams(unitaries, kets)
    _check_branches(weights, grams)
    dq = _branch_distinguishability(rho.diagonal(axis1=-2, axis2=-1).real, weights, grams)
    return _stack_reports(_mixed_mixed_report, reduced, include_visibility, coherence, dq,
                          _branch_coherence_bound(rho, weights, grams), _submatrix_margin(reduced))


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
    rank over 1..n (detector-state rank over 1..dim).

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
    if scenario != "pure_pure" and rank is not None and not 1 <= rank <= min(n_choices):
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
