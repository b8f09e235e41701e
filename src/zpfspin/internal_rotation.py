"""The winding dichotomy, the internal rotation generator and its finite
rotations.

A particle state here carries, besides its orbital label, a factor
e^{i*w*angle} in an internal angle. The winding w is pinned to +-1/2 by the
dichotomy argument (every admissible pair of values must differ by exactly
one, values must be pairwise distinct, and the two members of a pair are
sign-opposed), and -i hbar d/d(angle) then measures +-hbar/2 on these states.
The exact eigenvalue is read off rotation_factor; apply_spin_z measures it
numerically.

Half-integer windings are 4 pi periodic, not 2 pi periodic, so the numeric
differentiation grid lives on the double cover [0, 4 pi); a single-cover grid
would wrap across a sign discontinuity and differentiate garbage.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, starmap

from ._lazy import np
from .errors import ResolutionError, refuse
from .phase_algebra import PhaseExpression

__all__ = [
    "DichotomyResult",
    "dichotomy_solve",
    "apply_spin_z",
    "rotation_factor",
]

_HALF = Fraction(1, 2)
_ALLOWED = (_HALF, -_HALF)


@dataclass(frozen=True)
class DichotomyResult:
    feasible: bool
    sign_opposed: bool


# the four possible verdicts, shared by every call: a frozen result cannot be
# changed by one caller under another, and dataclasses.replace builds anew
_VERDICTS = {
    (feasible, sign_opposed): DichotomyResult(feasible, sign_opposed)
    for feasible in (False, True)
    for sign_opposed in (False, True)
}


def _unit_apart(a: Fraction, b: Fraction) -> bool:
    """Whether a - b = +-1, without forming the difference: in lowest terms
    that holds only for equal denominators and numerators one denominator
    apart (which also makes a and b distinct)."""
    return a.denominator == b.denominator and abs(a.numerator - b.numerator) == a.denominator


def dichotomy_solve(candidates) -> DichotomyResult:
    """Feasibility of a finite family of winding values.

    Input is a sequence, not a set, so repeated values are visible (a
    repeated value violates distinctness and must come out infeasible).
    Feasible means every pair of entries is distinct and differs by exactly
    one; three or more values can never satisfy that, which the pairwise
    search discovers on its own: it stops at the first pair that fails, and
    among the first three values one always does. The sign condition (each
    pair sums to zero) is reported separately; it is what narrows a feasible
    pair to the canonical (-1/2, +1/2). It is decided without a pair search:
    a pair sums to zero or not, and among three or more values every pair
    sums to zero only when all of them are 0. Both take O(n) steps. Each
    pair is compared on the integers of its two lowest-terms fractions.
    The result is one of four shared, frozen verdicts.
    """
    values = [v if isinstance(v, Fraction) else Fraction(v) for v in candidates]
    if not values:
        raise ValueError("need at least one candidate value")
    feasible = all(starmap(_unit_apart, combinations(values, 2)))
    if len(values) == 2:
        sign_opposed = values[0] == -values[1]
    else:
        # a single value has no pair to fail
        sign_opposed = len(values) == 1 or not any(values)
    return _VERDICTS[feasible, sign_opposed]


def apply_spin_z(winding, grid: int = 1024) -> float:
    """Eigenvalue of -i hbar d/d(angle) on e^{i*w*angle} in units of hbar,
    measured numerically; the winding w must be +-1/2.

    Samples e^{i*w*angle} on a uniform grid over the double cover and
    applies the 5-point central first-derivative stencil (the 3-point one
    stalls near 1e-6 at practical grids and cannot certify 1e-8). The
    stencil wraps periodically, which is legitimate only because the grid
    spans the full 4 pi period. Raises SizeLimitError, before allocating,
    for a grid past the byte limit of errors.LIMITS.
    """
    w = Fraction(winding)
    if w not in _ALLOWED:
        raise ValueError(f"winding must be +1/2 or -1/2, got {w}")
    if grid < 16:
        raise ResolutionError(f"the derivative stencil needs at least 16 grid points, got {grid}")
    # the samples, their four shifted copies and the stencil's partial sums
    # hold about 72 bytes per point (tracemalloc)
    refuse([(f"a spin grid of {grid} points", "bytes", 72 * grid)])
    w = float(w)
    theta = np.linspace(0.0, 4.0 * np.pi, grid, endpoint=False)
    h = 4.0 * np.pi / grid
    f = np.exp(1j * w * theta)
    deriv = (
        -np.roll(f, -2) + 8.0 * np.roll(f, -1) - 8.0 * np.roll(f, 1) + np.roll(f, 2)
    ) / (12.0 * h)
    return float(np.mean((-1j * deriv / f).real))


def rotation_factor(winding, theta_over_pi) -> PhaseExpression:
    """Exact phase picked up under an internal rotation by theta.

    The generator acts as multiplication by e^{-i*w*theta}; theta is passed
    as a rational multiple of pi so a full turn (theta_over_pi = 2) on a
    half-integer state gives exactly -1.
    """
    return PhaseExpression(-Fraction(winding) * Fraction(theta_over_pi))
