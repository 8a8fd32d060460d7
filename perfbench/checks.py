"""Output checks for every benchmark op, stdlib only.

A check never raises on bad output: it collects problems, so a wrong op
counts as failed and the run goes on. It also records accuracy headroom,
log10(tolerance / |residual|) for each relation it checks, with |residual|
floored at HEADROOM_FLOOR so an exact zero gives a finite cap. For a
one-sided bound the residual is the excess past zero on the forbidden
side, so a mixed_mixed trial that sits on its bound (C + D_Q = 1, or
coherence equal to its branch-averaged bound) reads its rounding error; a
bound with no excess adds nothing to the headroom.
"""

from __future__ import annotations

import csv
import json
import math

#: README tolerance on duality_sum and slack_identity
DUALITY_TOL = 1e-9
#: README tolerance on coherence_bound_margin and psd_margin_min (from below)
MARGIN_TOL = 1e-10
#: closed-form visibility tolerance for the two- and three-slit families
VISIBILITY_TOL = 1e-8
#: a value recomputed from reported numbers must agree to a few ulp
ULP_TOL = 4 * math.ulp(1.0)
HEADROOM_FLOOR = 2.0 ** -52
#: the headroom an exact zero residual reads against the tightest tolerance
HEADROOM_CAP = math.log10(DUALITY_TOL / HEADROOM_FLOOR)
#: the README's relations per scenario: (residual, kind, tolerance), where
#: kind "abs" is |r| <= tol, "max" is r <= tol and "min" is r >= -tol
RELATIONS = {
    "pure_pure": (("duality_sum", "abs", DUALITY_TOL),
                  ("psd_margin_min", "min", MARGIN_TOL)),
    "mixed_pure": (("duality_sum", "max", DUALITY_TOL),
                   ("slack_identity", "abs", DUALITY_TOL),
                   ("psd_margin_min", "min", MARGIN_TOL)),
    "mixed_mixed": (("duality_sum", "max", DUALITY_TOL),
                    ("coherence_bound_margin", "min", MARGIN_TOL),
                    ("psd_margin_min", "min", MARGIN_TOL)),
}


class Check:
    """Problems found in one op's output, plus its minimum headroom."""

    def __init__(self):
        self.problems: list[str] = []
        self.headroom = math.inf

    @property
    def ok(self) -> bool:
        return not self.problems

    def require(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)

    def relation(self, name: str, residual: float, tol: float) -> None:
        """An equality relation that must hold to `tol`."""
        self.require(abs(residual) <= tol, f"{name} residual {residual!r} exceeds {tol:.0e}")
        self.headroom = min(self.headroom, math.log10(tol / max(abs(residual), HEADROOM_FLOOR)))

    def readme_relations(self, where: str, scenario: str, residuals) -> None:
        """The scenario's RELATIONS on `residuals` (name -> float)."""
        for name, kind, tol in RELATIONS[scenario]:
            value = float(residuals[name])
            excess = {"abs": abs(value), "max": max(value, 0.0), "min": max(-value, 0.0)}[kind]
            if kind == "abs" or excess > 0.0:  # a bound not reached says nothing of precision
                self.relation(f"{where}{name}", excess, tol)

    def recomputed(self, name: str, reported: float, rebuilt: float) -> None:
        """A reported value must equal its rebuild from the other reported numbers."""
        self.require(abs(reported - rebuilt) <= ULP_TOL,
                     f"{name} reported {reported!r} but rebuilds to {rebuilt!r}")


def closed_form_visibility(n: int, gamma: float) -> float:
    """V = gamma for two slits, V = 3 gamma / (2 + gamma) for three."""
    if n == 2:
        return gamma
    if n == 3:
        return 3.0 * gamma / (2.0 + gamma)
    raise ValueError(f"no closed-form visibility for n = {n}")


def check_campaign(prefix: str, scenario: str, trials: int) -> Check:
    c = Check()
    with open(prefix + ".csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    c.require(len(rows) == trials, f"{len(rows)} CSV rows, expected {trials}")
    for i, row in enumerate(rows):
        c.require(row["trial"] == str(i) and row["scenario"] == scenario,
                  f"row {i} is trial {row['trial']} of {row['scenario']}")
        c.require(row["passed"] == "true", f"trial {i} did not pass")
        coherence = float(row["coherence"])
        dist = float(row["distinguishability"])
        duality_sum = float(row["duality_sum"])
        c.recomputed(f"trial {i} duality_sum", duality_sum, coherence + dist - 1.0)
        c.readme_relations(f"trial {i} ", scenario, row)
    with open(prefix + ".json", encoding="utf-8") as fh:
        aggregate = json.load(fh)
    c.require(aggregate["violations"] == 0, f"aggregate reports {aggregate['violations']} violations")
    c.require(aggregate["trials"] == trials, f"aggregate covers {aggregate['trials']} trials")
    return c


def check_sweep(path: str, n: int, gammas: list[float]) -> Check:
    c = Check()
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    c.require(len(rows) == len(gammas), f"{len(rows)} sweep rows, expected {len(gammas)}")
    previous = -math.inf
    for gamma, row in zip(gammas, rows):
        c.require(float(row["gamma"]) == gamma, f"row gamma {row['gamma']} is not {gamma!r}")
        coherence = float(row["coherence"])
        c.require(coherence >= previous, f"coherence falls to {coherence!r} at gamma {gamma!r}")
        previous = coherence
        c.relation(f"gamma {gamma!r} duality_sum",
                   coherence + float(row["distinguishability"]) - 1.0, DUALITY_TOL)
        c.relation(f"gamma {gamma!r} visibility",
                   float(row["visibility"]) - closed_form_visibility(n, gamma), VISIBILITY_TOL)
    return c


def check_fringe(path: str, n: int, gamma: float, grid_points: int) -> Check:
    c = Check()
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        columns = fh.readline()
        rows = sum(1 for _ in fh)
    fields = dict(part.split("=", 1) for part in header.lstrip("# ").split())
    c.require(columns.strip() == "theta,intensity", f"unexpected columns {columns.strip()!r}")
    c.require(rows == grid_points, f"{rows} fringe rows, expected {grid_points}")
    c.require(int(fields["n"]) == n and float(fields["gamma"]) == gamma,
              f"header describes n={fields['n']} gamma={fields['gamma']}")
    coherence = float(fields["coherence"])
    c.relation("duality_sum", coherence + float(fields["distinguishability"]) - 1.0, DUALITY_TOL)
    c.relation("coherence", coherence - gamma, DUALITY_TOL)
    c.relation("visibility", float(fields["visibility"]) - closed_form_visibility(n, gamma),
               VISIBILITY_TOL)
    return c


def check_verify(path: str, scenario: str, n: int) -> Check:
    c = Check()
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    c.require(report["scenario"] == scenario and report["n"] == n,
              f"report is {report['scenario']} n={report['n']}")
    c.require(report["passed"] is True, "report did not pass")
    coherence = report["coherence"]
    dist = report["distinguishability"]
    slack = report["slack"]
    residuals = report["relation_residuals"]
    c.recomputed("duality_sum", residuals["duality_sum"], coherence + dist - 1.0)
    if scenario == "mixed_pure":
        c.recomputed("slack_identity", residuals["slack_identity"], coherence + dist + slack - 1.0)
    elif scenario == "mixed_mixed":
        # mixed_mixed reports the gap 1 - C - D as its slack
        c.recomputed("slack", slack, 1.0 - coherence - dist)
    c.readme_relations("", scenario, residuals)
    return c
