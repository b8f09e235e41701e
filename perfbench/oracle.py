"""Independent oracle for CLI verification reports.

It checks only properties that any correct implementation keeps, derived
here from the run's inputs rather than taken from the report's own
`expected` fields: state and mode counts, antisymmetrizer term counts, the
exchange phase, antiphase feasibility and closed-form single-mode energies.
It never checks drawn random values or report bytes, which planned changes
to the sampler and the report schema legitimately alter.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

# Every case's correct exit code: all mixes hold only runs whose checks hold.
EXPECTED_EXIT = 0


@dataclass
class Verdict:
    exit_ok: bool
    problems: list
    report: dict | None

    @property
    def failed(self) -> bool:
        return not self.exit_ok or bool(self.problems)


def _check(report: dict, name: str) -> dict:
    for entry in report["checks"]:
        if entry["name"] == name:
            return entry
    raise KeyError(f"no check named {name!r}")


def reported_terms(report: dict) -> int:
    """The term count a slater report gives for the state it built."""
    return int(_check(report, "term_count")["actual"])


def mode_count(n_max: int) -> int:
    return 2 * ((2 * n_max + 1) ** 3 - 1)


def _omega(n) -> float:
    # natural units, unit box: omega = c |k| = 2 pi |n| / L
    return 2.0 * math.pi * math.sqrt(sum(c * c for c in n))


def _close(actual: float, expected: float, rel: float) -> bool:
    return abs(float(actual) - expected) <= rel * abs(expected)


def _sum_rule(case, report):
    n_cut = case.params["n_cut"]
    for d in case.params["dims"]:
        want = math.comb(n_cut - 1 + d, d)
        got = report["details"]["dims"][str(d)]["states_checked"]
        if got != want:
            yield f"dims={d}: states_checked {got}, expected C({n_cut - 1 + d},{d}) = {want}"


def _angular(case, report):
    n_cut, (d,) = case.params["n_cut"], case.params["dims"]
    want = math.comb(n_cut - 1 + d, d)
    got = report["details"]["states_checked"]
    if got != want:
        yield f"states_checked {got}, expected {want}"


def _slater(case, report):
    n = case.params["n"]
    want = math.factorial(n) if case.params["distinct"] else 0
    got = reported_terms(report)
    if got != want:
        yield f"term_count {got}, expected {want}"


def _derive(case, report):
    spins = [Fraction(s) for s in case.params["spins"]]
    if all(s.denominator == 2 for s in spins):
        want = "1*pi"
    elif all(s.denominator == 1 for s in spins):
        want = "0"
    else:
        raise ValueError(f"mixed spins {spins} are not in any mix")
    got = report["details"]["derivation"]["value"]
    if got != want:
        yield f"exchange value {got!r}, expected {want!r}"


def _antiphase(case, report):
    n = case.params["n"]
    feasible = report["details"]["witness"] is not None
    if feasible != (n <= 2):
        yield f"n={n}: feasible={feasible}, expected {n <= 2}"


def _dichotomy(case, report):
    if report["details"]["input"]["feasible"] is not True:
        yield "the pair 1/2, -1/2 came out infeasible"


def _sz(case, report):
    want = float(Fraction(case.params["winding"]))
    got = _check(report, "numeric_matches_symbolic")["actual"]
    if abs(got - want) > 1e-8:
        yield f"numeric S_z eigenvalue {got}, expected {want}"


def _phases(case, report):
    details = report["details"]
    want = mode_count(case.params["n_max"])
    if details["mode_count"] != want:
        yield f"mode_count {details['mode_count']}, expected {want}"
    if details["ensemble"] != case.params["ensemble"]:
        yield f"ensemble {details['ensemble']}, expected {case.params['ensemble']}"


def _field_sample(case, report):
    details = report["details"]
    want = mode_count(case.params["n_max"])
    if details["modes"] != want:
        yield f"modes {details['modes']}, expected {want}"
    if details["points"] != case.params["points"]:
        yield f"points {details['points']}, expected {case.params['points']}"


def _mode_observables(case, report):
    want = _omega(case.params["n"]) / 2.0
    got = report["details"]["quadrature"]["H"]
    if not _close(got, want, 1e-9):
        yield f"quadrature H {got}, expected hbar*omega/2 = {want}"


def _totals(case, report):
    n_max = case.params["n_max"]
    details = report["details"]
    want = mode_count(n_max)
    if details["modes"] != want:
        yield f"modes {details['modes']}, expected {want}"
    # two polarizations per wave vector, each carrying hbar*omega/2
    span = range(-n_max, n_max + 1)
    energy = sum(_omega(n) for n in itertools.product(span, repeat=3))
    if not _close(details["total_energy"], energy, 1e-12):
        yield f"total_energy {details['total_energy']}, expected {energy}"


_ORACLES = {
    "sum-rule": _sum_rule,
    "angular-momentum": _angular,
    "slater": _slater,
    "exchange-derive": _derive,
    "antiphase": _antiphase,
    "dichotomy": _dichotomy,
    "sz": _sz,
    "phases": _phases,
    "field-sample": _field_sample,
    "mode-observables": _mode_observables,
    "totals": _totals,
}


def judge(case, exit_code: int, stdout: str) -> Verdict:
    """Check one run: its exit code, and its report against the oracle."""
    exit_ok = exit_code == EXPECTED_EXIT
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return Verdict(exit_ok, [f"exit code {exit_code}, no JSON report"], None)
    try:
        problems = list(_ORACLES[case.command](case, report))
    except (KeyError, TypeError, ValueError) as exc:
        problems = [f"malformed report: {exc!r}"]
    return Verdict(exit_ok, problems, report)
