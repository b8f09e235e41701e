"""Unit-phase expressions, surds, and symbolic coefficients.

The oracle throughout is numeric evaluation: any algebraic identity on the
symbolic side must reproduce under val, which binds every symbol to a fixed
angle. The library itself never evaluates a phase numerically.
"""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from zpfspin.phase_algebra import (
    MINUS_ONE,
    ONE,
    Coefficient,
    PhaseExpression,
    Surd,
    format_symbol,
    phi_symbol,
    zeta_symbol,
)

SYMS = [
    phi_symbol(1),
    phi_symbol(2),
    zeta_symbol(1, "a", "b")[0],
    zeta_symbol(2, "a", "b")[0],
]

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=12)


@st.composite
def phases(draw):
    q = draw(rationals)
    coeffs = draw(st.dictionaries(st.sampled_from(SYMS), rationals, max_size=3))
    return PhaseExpression(q, coeffs)


BINDINGS = {sym: 0.31 + 0.47 * i for i, sym in enumerate(SYMS)}


def val(value):
    """Numeric value of a Surd, Coefficient or PhaseExpression with every
    symbol bound by BINDINGS."""
    if isinstance(value, Surd):
        return float(value.coeff) * math.sqrt(value.radicand)
    if isinstance(value, Coefficient):
        return val(value.magnitude) * val(value.phase)
    angle = math.pi * float(value.pi_part)
    for sym, c in value.coeffs.items():
        angle += float(c) * BINDINGS[sym]
    return complex(math.cos(angle), math.sin(angle))


# --- group structure ----------------------------------------------------------


@given(phases(), phases(), phases())
def test_multiplication_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(phases())
def test_identity_and_inverse(a):
    assert a * ONE == a
    assert a * a.inverse() == ONE
    assert a.inverse().inverse() == a


@given(phases(), phases())
def test_numeric_homomorphism(a, b):
    assert cmath.isclose(val(a * b), val(a) * val(b), rel_tol=1e-12)
    assert cmath.isclose(abs(val(a)), 1.0, rel_tol=1e-12)


@given(phases(), st.integers(min_value=-4, max_value=4))
def test_integer_powers(a, n):
    direct = ONE
    step = a if n >= 0 else a.inverse()
    for _ in range(abs(n)):
        direct = direct * step
    assert direct == PhaseExpression(n * a.pi_part, {s: n * c for s, c in a.coeffs.items()})


def test_two_pi_collapses_to_identity():
    assert PhaseExpression(2) == ONE
    assert PhaseExpression(Fraction(7, 2)) == PhaseExpression(Fraction(3, 2))
    assert PhaseExpression(1).is_minus_one
    assert PhaseExpression(-1).is_minus_one


# pi parts of every kind: even and odd integers of either sign, and fractions
pi_parts = st.one_of(st.integers(min_value=-7, max_value=7), rationals)


@given(pi_parts, st.dictionaries(st.sampled_from(SYMS), rationals, max_size=2))
@example(Fraction(3, 2), {})
@example(Fraction(-1, 2), {})
@example(-3, {})
@example(-4, {})
@example(1, {SYMS[0]: Fraction(1, 2)})
@example(2, {SYMS[0]: 0})
def test_unit_flags_agree_with_pi_part_mod_2(q, coeffs):
    # the flags read the integers of the lowest-terms pi part; the
    # remainder mod 2 is the reference
    expr = PhaseExpression(q, coeffs)
    numeric = not any(coeffs.values())
    assert expr.is_one == (numeric and Fraction(q) % 2 == 0)
    assert expr.is_minus_one == (numeric and Fraction(q) % 2 == 1)


def _cancelling(a):
    """A substitution of a's first symbol that cancels every other symbol
    of a, as the exchange solver's pinning does."""
    syms = sorted(a.coeffs, key=format_symbol)
    if not syms:
        return {}
    first, c0 = syms[0], a.coeffs[syms[0]]
    return {first: PhaseExpression(1, {s: -a.coeffs[s] / c0 for s in syms[1:]})}


@given(phases(), phases(), st.dictionaries(st.sampled_from(SYMS), phases(), max_size=2))
def test_results_are_stored_as_built_from_scratch(a, b, mapping):
    results = [
        a * b,
        a * a.inverse(),
        a.inverse(),
        a.substitute(mapping),
        a.substitute(_cancelling(a)),
    ]
    for r in results:
        assert type(r.pi_part) is Fraction
        assert all(type(c) is Fraction and c != 0 for c in r.coeffs.values())
        rebuilt = PhaseExpression(r.pi_part, dict(r.coeffs))
        assert r == rebuilt
        assert hash(r) == hash(rebuilt)
        assert r.format() == rebuilt.format()


def test_int_coefficients_are_stored_as_fractions():
    expr = PhaseExpression(3, {SYMS[0]: 2, SYMS[1]: 0})
    assert type(expr.pi_part) is Fraction
    assert expr.coeffs == {SYMS[0]: Fraction(2)}
    assert type(expr.coeffs[SYMS[0]]) is Fraction
    with pytest.raises(TypeError):
        PhaseExpression(0.5)
    with pytest.raises(TypeError):
        PhaseExpression(0, {SYMS[0]: 0.5})


# --- substitution -------------------------------------------------------------


def test_substitution_linear():
    phi1, phi2 = phi_symbol(1), phi_symbol(2)
    expr = PhaseExpression.from_symbol(phi2)
    shifted = expr.substitute({phi2: PhaseExpression(2, {phi1: 1})})
    # pi_part 2 is the identity, so the result equals phi1 alone
    assert shifted == PhaseExpression.from_symbol(phi1)


def test_substitution_keeps_residual_for_fractional_weight():
    # a 2*pi angle shift scaled by -1/2 must leave an explicit e^{-i pi}
    phi1, phi2 = phi_symbol(1), phi_symbol(2)
    expr = PhaseExpression.from_symbol(phi2, Fraction(-1, 2))
    shifted = expr.substitute({phi2: PhaseExpression(2, {phi1: 1})})
    bare = PhaseExpression.from_symbol(phi1, Fraction(-1, 2))
    assert shifted * bare.inverse() == MINUS_ONE


@given(phases())
def test_substitution_identity_mapping(a):
    mapping = {sym: PhaseExpression.from_symbol(sym) for sym in a.coeffs}
    assert a.substitute(mapping) == a


def test_relabel_round_trip():
    z1 = zeta_symbol(1, "a", "b")[0]
    z2 = zeta_symbol(2, "a", "b")[0]
    expr = PhaseExpression(0, {z1: 1, z2: -1})
    swap = {z1: PhaseExpression.from_symbol(z2), z2: PhaseExpression.from_symbol(z1)}
    swapped = expr.substitute(swap)
    assert swapped == PhaseExpression(0, {z2: 1, z1: -1})
    assert swapped.substitute(swap) == expr


# --- evaluation and formatting ------------------------------------------------


def test_as_complex_matches_cmath():
    expr = PhaseExpression(Fraction(1, 3), {SYMS[0]: Fraction(2), SYMS[1]: -1})
    angle = math.pi / 3 + 2 * BINDINGS[SYMS[0]] - BINDINGS[SYMS[1]]
    assert cmath.isclose(val(expr), cmath.exp(1j * angle), rel_tol=1e-12)


def test_format_is_canonical():
    assert ONE.format() == "0"
    assert PhaseExpression(Fraction(5, 2)).format() == "1/2*pi"
    expr = PhaseExpression(1, {phi_symbol(1): Fraction(-1, 2)})
    assert expr.format() == "1*pi - 1/2*phi_1"


def test_is_numeric_flags():
    assert ONE.is_numeric
    assert not PhaseExpression.from_symbol(SYMS[0]).is_numeric
    assert PhaseExpression.from_symbol(SYMS[0], 0) == ONE


# --- symbol constructors ------------------------------------------------------


def test_zeta_symbol_orders_pair():
    sym_ab, sign_ab = zeta_symbol(1, "a", "b")
    sym_ba, sign_ba = zeta_symbol(1, "b", "a")
    assert sym_ab == sym_ba
    assert (sign_ab, sign_ba) == (1, -1)
    with pytest.raises(ValueError):
        zeta_symbol(1, "a", "a")


def test_symbol_formatting():
    assert format_symbol(phi_symbol(2)) == "phi_2"
    assert format_symbol(zeta_symbol(1, "b", "a")[0]) == "zeta_1(a,b)"


# --- surds --------------------------------------------------------------------


def test_surd_normalizes_radicand():
    s = Surd(Fraction(1), 8)
    assert (s.coeff, s.radicand) == (Fraction(2), 2)
    assert val(s) == pytest.approx(math.sqrt(8))


def test_inv_sqrt():
    s = Surd.inv_sqrt(2)
    assert val(s) == pytest.approx(1 / math.sqrt(2))
    assert (s.coeff, s.radicand) == (Fraction(1, 2), 2)
    assert (Surd.inv_sqrt(4).coeff, Surd.inv_sqrt(4).radicand) == (Fraction(1, 2), 1)


def test_surd_arithmetic():
    a = Surd(Fraction(3), 2)
    b = Surd(Fraction(1, 2), 2)
    assert val(a + b) == pytest.approx(3.5 * math.sqrt(2))
    assert val(-a) == pytest.approx(-3 * math.sqrt(2))
    with pytest.raises(ValueError):
        a + Surd(Fraction(1), 3)


def test_surd_zero_absorbs():
    zero = Surd(Fraction(0), 5)
    assert zero.is_zero
    assert zero.radicand == 1
    assert (zero + Surd(Fraction(1), 3)).radicand == 3


# --- coefficients -------------------------------------------------------------


def test_coefficient_folds_sign_into_phase():
    neg = Coefficient.of(Surd(Fraction(-1), 2))
    pos = Coefficient.of(Surd(Fraction(1), 2), MINUS_ONE)
    assert neg == pos
    assert val(neg) == pytest.approx(-math.sqrt(2))


def test_coefficient_products():
    half = Coefficient.of(Surd.inv_sqrt(2))
    phase = PhaseExpression.from_symbol(phi_symbol(1))
    a = half.mul_phase(phase)
    assert val(a) == pytest.approx(val(half) * val(phase))


def test_coefficient_addition_cancels_opposite_phases():
    half = Coefficient.of(Surd.inv_sqrt(2))
    out = half + half.mul_phase(MINUS_ONE)
    assert out.is_zero
    same = half + half
    assert val(same) == pytest.approx(math.sqrt(2))


def test_coefficient_addition_rejects_incommensurate_phases():
    half = Coefficient.of(Surd.inv_sqrt(2))
    other = half.mul_phase(PhaseExpression(Fraction(1, 2)))
    with pytest.raises(ValueError):
        half + other


def test_coefficient_serialization():
    c = Coefficient.of(Surd(Fraction(-1, 2), 3), PhaseExpression.from_symbol(phi_symbol(1)))
    data = c.to_dict()
    assert data["magnitude"] == {"rational": "1/2", "radicand": 3}
    assert data["phase"] == "1*pi + 1*phi_1"
