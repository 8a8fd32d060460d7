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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .interference import _reduced_from_pure, scan_visibility, symmetric_detectors
from .linalg import principal_submatrix_margin, validate_density
from .measures import (
    coherence_bound_mixed_detector,
    coherence_normalized,
    distinguishability_mixed,
    distinguishability_mixed_detector,
    distinguishability_pure,
    mixed_duality_slack,
)
from .random import random_density, random_detectors, random_mixed_detector, random_pure, stream
from .states import (
    DetectorSet,
    MixedDetectorInteraction,
    MixedQuanton,
    PureQuanton,
    branch_overlaps,
    reduce_quanton_mixed_detector,
)

TOLERANCE = 1e-9
MARGIN_TOL = 1e-10
SCENARIOS = ("pure_pure", "mixed_pure", "mixed_mixed")
VISIBILITY_MAX_PATHS = 3  # the fringe correspondences of the two- and three-slit families

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


def _report(scenario: str, reduced: MixedQuanton, coherence: float, dq: float, slack: float,
            include_visibility: bool, *, saturated: bool = False,
            relations: dict[str, tuple[float, bool]] | None = None,
            checks: dict[str, bool] | None = None) -> DualityReport:
    """Shared tail of the evaluate_* functions.

    Every scenario reports the signed duality sum C + D_Q - 1 (held to
    |.| <= TOLERANCE when the state saturates the duality, to <= TOLERANCE
    otherwise) and the PSD margin of its reduced state. `relations` adds the
    scenario's own residuals with their verdicts and `checks` its
    verdicts that carry no residual; the dict order is the report order.
    """
    for name, value in (("coherence", coherence), ("distinguishability", dq), ("slack", slack)):
        if not math.isfinite(value):
            raise ValueError(f"{name} is not finite: {value!r}")
    duality_sum = coherence + dq - 1.0
    psd_margin = principal_submatrix_margin(reduced.rho)
    residuals = {"duality_sum": duality_sum}
    verdicts = {"duality_sum": (abs(duality_sum) if saturated else duality_sum) <= TOLERANCE}
    for key, (value, ok) in (relations or {}).items():
        residuals[key] = value
        verdicts[key] = ok
    residuals["psd_margin_min"] = psd_margin
    verdicts["psd_margin_min"] = psd_margin >= -MARGIN_TOL
    verdicts.update(checks or {})
    return DualityReport(
        scenario=scenario,
        n=reduced.n,
        coherence=coherence,
        distinguishability=dq,
        slack=slack,
        visibility=scan_visibility(reduced).visibility if include_visibility else None,
        relation_residuals=residuals,
        verdicts=verdicts,
    )


def evaluate_pure(q: PureQuanton, d: DetectorSet, include_visibility: bool = False) -> DualityReport:
    """Entangle, trace the detector out, and check C + D_Q = 1.

    Coherence is read off the reduced state produced by the actual
    partial-trace pipeline, so the equality genuinely tests the numerics
    rather than an algebraic shortcut.
    """
    reduced = _reduced_from_pure(q, d)
    coherence = coherence_normalized(reduced.rho)
    dq = distinguishability_pure(q, d)
    return _report("pure_pure", reduced, coherence, dq, 0.0, include_visibility, saturated=True)


def evaluate_mixed(q: MixedQuanton, d: DetectorSet, include_visibility: bool = False) -> DualityReport:
    """Mixed quanton, pure detectors: slack identity plus duality inequality.

    The reduced state is rho_ij <d_j|d_i> entrywise; C, D_Q, and the
    slack then satisfy C + D_Q + slack = 1 with slack >= 0.
    """
    if q.n != d.n:
        raise ValueError(f"path count mismatch: quanton has {q.n}, detectors have {d.n}")
    reduced = MixedQuanton(rho=validate_density(q.rho.matrix * d.gram.conj()))
    coherence = coherence_normalized(reduced.rho)
    dq = distinguishability_mixed(q, d.gram)
    slack = mixed_duality_slack(q, d.gram)
    slack_identity = coherence + dq + slack - 1.0
    return _report("mixed_pure", reduced, coherence, dq, slack, include_visibility,
                   relations={"slack_identity": (slack_identity, abs(slack_identity) <= TOLERANCE)},
                   checks={"slack_nonnegative": slack >= -MARGIN_TOL})


def evaluate_mixed_detector(q: MixedQuanton, m: MixedDetectorInteraction,
                            include_visibility: bool = False) -> DualityReport:
    """Mixed quanton and mixed detector: the most general duality.

    Checks that the reduced coherence stays below its branch-averaged
    bound and that C + D_Q <= 1; ``slack`` records the observed gap.
    """
    reduced = reduce_quanton_mixed_detector(q, m)
    coherence = coherence_normalized(reduced.rho)
    branches = branch_overlaps(m)
    bound = coherence_bound_mixed_detector(q, branches)
    dq = distinguishability_mixed_detector(q, branches)
    bound_margin = bound - coherence
    return _report("mixed_mixed", reduced, coherence, dq, 1.0 - coherence - dq, include_visibility,
                   relations={"coherence_bound_margin": (bound_margin, bound_margin >= -MARGIN_TOL)})


def sweep_overlap(n: int, gammas: Sequence[float],
                  quanton: PureQuanton | MixedQuanton) -> list[DualityReport]:
    """Evaluate the uniform-overlap detector family at each gamma.

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
    include_v = n <= VISIBILITY_MAX_PATHS
    reports = []
    for gamma in gammas:
        detectors = symmetric_detectors(n, gamma)
        if isinstance(quanton, PureQuanton):
            reports.append(evaluate_pure(quanton, detectors, include_visibility=include_v))
        else:
            reports.append(evaluate_mixed(quanton, detectors, include_visibility=include_v))
    return reports


def _draw_report(scenario: str, rng: np.random.Generator, n_choices: Sequence[int],
                 detector_dim: int | None, rank: int | None) -> DualityReport:
    n = int(n_choices[rng.integers(len(n_choices))])
    dim = detector_dim if detector_dim is not None else int(rng.integers(n, 2 * n, endpoint=True))
    if scenario == "pure_pure":
        return evaluate_pure(random_pure(n, rng), random_detectors(n, dim, rng))
    if scenario == "mixed_pure":
        r = rank if rank is not None else int(rng.integers(1, n, endpoint=True))
        return evaluate_mixed(random_density(n, r, rng), random_detectors(n, dim, rng))
    if scenario == "mixed_mixed":
        r = rank if rank is not None else int(rng.integers(1, n, endpoint=True))
        quanton = random_density(n, r, rng)
        return evaluate_mixed_detector(quanton, random_mixed_detector(n, dim, rng))
    raise ValueError(f"unknown scenario {scenario!r}, expected one of {SCENARIOS}")


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
    reports = tuple(_draw_report(scenario, stream(seed, trial), n_choices, detector_dim, rank)
                    for trial in range(trials))
    return CampaignResult(scenario=scenario, trials=trials, seed=seed, reports=reports)
