"""Exact unit-phase arithmetic.

A PhaseExpression represents exp(i*(q*pi + sum_s c_s * s)) with q and every
c_s an exact rational and each s a formal symbol (an angle variable such as a
mode phase or an internal rotation angle). Products add exponents, so the type
is an abelian group; equality is taken mod 2*pi on the numeric part and
exactly on the symbol coefficients. No floats enter.

Surd carries the exact normalization factors (1/sqrt(2), 1/sqrt(n!)) as
rational * sqrt(square-free integer). Coefficient pairs a non-negative Surd
magnitude with a unit PhaseExpression; signs live in the phase as e^{i*pi},
which makes canonical forms unique and state comparison structural.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Mapping

__all__ = [
    "PhaseExpression",
    "Surd",
    "Coefficient",
    "ONE",
    "MINUS_ONE",
    "phi_symbol",
    "zeta_symbol",
    "format_symbol",
]


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, Rational) or isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"exact rational required, got {type(value).__name__}")


def phi_symbol(particle: int):
    """Formal internal angle of one particle slot (1-based)."""
    return ("phi", int(particle))


def zeta_symbol(particle: int, label_a: str, label_b: str):
    """Formal mode phase difference zeta_{ab} carried by one particle.

    Antisymmetry under label swap (zeta_ba = -zeta_ab, the chain rule) is
    encoded by storing only the sorted label pair: returns (symbol, sign).
    """
    if label_a == label_b:
        raise ValueError("zeta symbol requires two distinct state labels")
    if label_a < label_b:
        return ("zeta", int(particle), (label_a, label_b)), 1
    return ("zeta", int(particle), (label_b, label_a)), -1


def format_symbol(sym) -> str:
    if isinstance(sym, tuple) and len(sym) >= 2:
        if sym[0] == "phi":
            return f"phi_{sym[1]}"
        if sym[0] == "zeta":
            a, b = sym[2]
            return f"zeta_{sym[1]}({a},{b})"
    return str(sym)


class PhaseExpression:
    """exp(i*(pi_part*pi + sum coeffs[s]*s)), exact.

    pi_part is kept as given, unreduced; it is taken mod 2 only when phases
    are compared or formatted.
    """

    __slots__ = ("pi_part", "coeffs")

    def __init__(self, pi_part=0, coeffs: Mapping | None = None):
        # a value of type Fraction is taken as it is: the products and sums
        # of the methods below hand back Fractions already
        self.pi_part = pi_part if type(pi_part) is Fraction else _as_fraction(pi_part)
        clean = {}
        if coeffs:
            for sym, c in coeffs.items():
                if type(c) is not Fraction:
                    c = _as_fraction(c)
                if c:
                    clean[sym] = c
        self.coeffs = clean

    @classmethod
    def from_symbol(cls, sym, coeff=1) -> "PhaseExpression":
        """e^{i*coeff*sym}."""
        return cls(0, {sym: coeff})

    def __mul__(self, other: "PhaseExpression") -> "PhaseExpression":
        merged = dict(self.coeffs)
        for sym, c in other.coeffs.items():
            mine = merged.get(sym)
            merged[sym] = c if mine is None else mine + c
        return PhaseExpression(self.pi_part + other.pi_part, merged)

    def inverse(self) -> "PhaseExpression":
        return PhaseExpression(-self.pi_part, {s: -c for s, c in self.coeffs.items()})

    def substitute(self, mapping: Mapping) -> "PhaseExpression":
        """Replace symbols by angle forms: each value is a PhaseExpression
        whose exponent substitutes for the symbol."""
        pi = self.pi_part
        coeffs: dict = {}
        for sym, c in self.coeffs.items():
            repl = mapping.get(sym)
            if repl is None:
                mine = coeffs.get(sym)
                coeffs[sym] = c if mine is None else mine + c
                continue
            if repl.pi_part:
                pi += c * repl.pi_part
            for s2, c2 in repl.coeffs.items():
                mine = coeffs.get(s2)
                coeffs[s2] = c * c2 if mine is None else mine + c * c2
        return PhaseExpression(pi, coeffs)

    # pi_part is in lowest terms, so it is an integer exactly when its
    # denominator is 1, and its numerator's parity is then its value mod 2

    @property
    def is_one(self) -> bool:
        q = self.pi_part
        return not self.coeffs and q.denominator == 1 and q.numerator % 2 == 0

    @property
    def is_minus_one(self) -> bool:
        q = self.pi_part
        return not self.coeffs and q.denominator == 1 and q.numerator % 2 == 1

    @property
    def is_numeric(self) -> bool:
        return not self.coeffs

    def _key(self):
        return (self.pi_part % 2, frozenset(self.coeffs.items()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PhaseExpression):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def format(self) -> str:
        """Canonical text form 'q*pi + c*sym - ...' (numeric part reduced mod 2)."""
        parts = []
        q = self.pi_part % 2
        if q != 0:
            parts.append((Fraction(q), "pi"))
        for sym in sorted(self.coeffs, key=format_symbol):
            parts.append((self.coeffs[sym], format_symbol(sym)))
        if not parts:
            return "0"
        out = []
        for i, (c, name) in enumerate(parts):
            mag = abs(c)
            piece = f"{mag}*{name}"
            if i == 0:
                out.append(piece if c > 0 else f"-{piece}")
            else:
                out.append(("+ " if c > 0 else "- ") + piece)
        return " ".join(out)

    def __repr__(self):
        return f"PhaseExpression({self.format()!r})"


ONE = PhaseExpression(0)
MINUS_ONE = PhaseExpression(1)


def _squarefree(n: int) -> tuple[int, Fraction]:
    """n = s^2 * r with r square-free; returns (r, s)."""
    if n <= 0:
        raise ValueError("radicand must be positive")
    s = 1
    r = n
    d = 2
    while d * d <= r:
        while r % (d * d) == 0:
            r //= d * d
            s *= d
        d += 1
    return r, Fraction(s)


@dataclass(frozen=True)
class Surd:
    """coeff * sqrt(radicand) with radicand square-free and positive."""

    coeff: Fraction
    radicand: int = 1

    def __post_init__(self):
        coeff = _as_fraction(self.coeff)
        rad = int(self.radicand)
        if coeff == 0:
            rad = 1
        else:
            rad, square = _squarefree(rad)
            coeff = coeff * square
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "radicand", rad)

    @classmethod
    def inv_sqrt(cls, n: int) -> "Surd":
        """1/sqrt(n), exact."""
        if n <= 0:
            raise ValueError("inv_sqrt needs a positive integer")
        return cls(Fraction(1, n), n)

    @property
    def is_zero(self) -> bool:
        return self.coeff == 0

    def __add__(self, other: "Surd") -> "Surd":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.radicand != other.radicand:
            raise ValueError("cannot add surds with different radicands")
        return Surd(self.coeff + other.coeff, self.radicand)

    def __neg__(self) -> "Surd":
        return Surd(-self.coeff, self.radicand)

    def __repr__(self):
        if self.radicand == 1:
            return f"Surd({self.coeff})"
        return f"Surd({self.coeff}*sqrt({self.radicand}))"


_ZERO_SURD = Surd(Fraction(0))


@dataclass(frozen=True)
class Coefficient:
    """magnitude * phase with magnitude a non-negative Surd.

    Use Coefficient.of() to build: it folds a negative rational sign into the
    phase so equal values always compare equal structurally.
    """

    magnitude: Surd
    phase: PhaseExpression

    @classmethod
    def of(cls, magnitude: Surd, phase: PhaseExpression = ONE) -> "Coefficient":
        if magnitude.is_zero:
            return cls(_ZERO_SURD, ONE)
        if magnitude.coeff < 0:
            return cls(-magnitude, phase * MINUS_ONE)
        return cls(magnitude, phase)

    @property
    def is_zero(self) -> bool:
        return self.magnitude.is_zero

    def mul_phase(self, phase: PhaseExpression) -> "Coefficient":
        return Coefficient.of(self.magnitude, self.phase * phase)

    def __add__(self, other: "Coefficient") -> "Coefficient":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        rel = other.phase * self.phase.inverse()
        if rel.is_one:
            return Coefficient.of(self.magnitude + other.magnitude, self.phase)
        if rel.is_minus_one:
            return Coefficient.of(self.magnitude + (-other.magnitude), self.phase)
        raise ValueError("cannot add coefficients with incommensurate phases")

    def transform_phase(self, func) -> "Coefficient":
        return Coefficient.of(self.magnitude, func(self.phase))

    def to_dict(self) -> dict:
        return {
            "magnitude": {
                "rational": str(self.magnitude.coeff),
                "radicand": self.magnitude.radicand,
            },
            "phase": self.phase.format(),
        }
