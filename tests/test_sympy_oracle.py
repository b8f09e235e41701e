"""Exact arithmetic checked against sympy, an independent computer algebra
system.

Each library value is rebuilt as a sympy expression, and sympy's automatic
simplification gives the reference. Surd results must match sympy's
canonical q*sqrt(r) form, r square-free, part by part, not only in value.
Phases are compared as linear forms in pi and the symbols, equal when they
differ by a multiple of 2*pi.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zpfspin.phase_algebra import (
    Coefficient,
    PhaseExpression,
    Surd,
    format_symbol,
    phi_symbol,
    zeta_symbol,
)

sp = pytest.importorskip("sympy")

SYMS = [phi_symbol(1), phi_symbol(2), zeta_symbol(1, "a", "b")[0], zeta_symbol(2, "a", "c")[0]]
SYMPY_SYMS = {sym: sp.Symbol(format_symbol(sym), real=True) for sym in SYMS}

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=12)
radicands = st.integers(min_value=1, max_value=300)
surds = st.builds(Surd, rationals.filter(bool), radicands)


@st.composite
def phases(draw):
    coeffs = draw(st.dictionaries(st.sampled_from(SYMS), rationals, max_size=3))
    return PhaseExpression(draw(rationals), coeffs)


def rational(q: Fraction):
    return sp.Rational(q.numerator, q.denominator)


def surd(s: Surd):
    return rational(s.coeff) * sp.sqrt(s.radicand)


def exponent(p: PhaseExpression):
    """The exponent X of e^{iX} as a linear form in pi and the symbols."""
    return rational(p.pi_part) * sp.pi + sum(
        (rational(c) * SYMPY_SYMS[sym] for sym, c in p.coeffs.items()), sp.Integer(0)
    )


def canonical_parts(value) -> tuple:
    """(q, r) of sympy's canonical form q*sqrt(r) of a real surd value."""
    q, rest = value.as_coeff_Mul()
    if rest == 1:
        return Fraction(int(q.p), int(q.q)), 1
    assert rest.is_Pow and rest.exp == sp.Rational(1, 2) and rest.base.is_Integer
    return Fraction(int(q.p), int(q.q)), int(rest.base)


def assert_canonical(s: Surd, value):
    assert (s.coeff, s.radicand) == canonical_parts(value)


def same_phase(a, b) -> bool:
    """Two exponents name the same unit phase: they differ by 2*pi*k."""
    return sp.expand((a - b) / (2 * sp.pi)).is_integer


@settings(max_examples=60, deadline=None)
@given(surds, surds, rationals, rationals, radicands)
def test_surd_products_and_sums_match_sympy(a, b, q1, q2, r):
    assert_canonical(a, surd(a))
    # a product's canonical form is what the constructor makes of it
    assert_canonical(Surd(a.coeff * b.coeff, a.radicand * b.radicand), surd(a) * surd(b))
    first, second = Surd(q1, r), Surd(q2, r)
    assert_canonical(first + second, surd(first) + surd(second))


@settings(max_examples=60, deadline=None)
@given(surds, rationals, rationals)
def test_coefficient_products_match_sympy(sa, pa, pb):
    # a signed surd times numeric phases e^{i pi p}
    got = Coefficient.of(sa, PhaseExpression(pa)).mul_phase(PhaseExpression(pb))
    real, angle = surd(sa), rational(pa) + rational(pb)
    # the sign of the real factor belongs in the phase, as e^{i pi}
    if real < 0:
        real, angle = -real, angle + 1
    assert_canonical(got.magnitude, real)
    assert same_phase(exponent(got.phase), angle * sp.pi)


@settings(max_examples=60, deadline=None)
@given(phases(), phases(), st.dictionaries(st.sampled_from(SYMS), phases(), max_size=3))
def test_phase_products_and_substitutions_match_sympy(a, b, mapping):
    assert same_phase(exponent(a * b), exponent(a) + exponent(b))
    substituted = exponent(a).xreplace(
        {SYMPY_SYMS[sym]: exponent(repl) for sym, repl in mapping.items()}
    )
    assert same_phase(exponent(a.substitute(mapping)), substituted)
