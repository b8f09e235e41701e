"""Spectral sums over oscillator matrix elements, exact splits, expansions.

The angular-momentum checks run three routes that share no intermediate
code: the polarized weight sums, the velocity-form cross terms, and a
matrix product L_z = x py - y px assembled right here in the test.
"""

import math
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from zpfspin.cli import main
from zpfspin.constants import NATURAL, PhysicalConstants
from zpfspin.errors import CoherenceError, IncompleteBasisError, MissingBindingError
from zpfspin.oscillator import (
    MatrixElementTable,
    build_oscillator_table,
    circular_components,
)
from zpfspin.spectral import (
    build_expansion,
    evaluate_expansion,
    expansion_product,
    lz_expectation,
    magnetic_moment_identity,
    operator_matrix,
    phase_context,
    polarized_momenta,
    spin_split,
    total_momentum,
    trk_sum_rule,
    zeeman_energy,
    zeeman_levels,
)

CONSTS = PhysicalConstants(hbar=0.7, c=1.0, m=2.3, mu0=1.0)
OMEGA0 = 1.4


def complete_labels(table):
    return [l for l in table.labels if table.coupling_complete(l)]


# --- oscillator-strength sum rule ---------------------------------------------


@pytest.mark.parametrize("dims", [2, 3])
def test_sum_rule_saturates_at_hbar(dims):
    table = build_oscillator_table(dims, OMEGA0, 5, CONSTS)
    for label in complete_labels(table):
        value = trk_sum_rule(table, label)
        assert value == pytest.approx(CONSTS.hbar, rel=1e-12)


def test_sum_rule_rejects_truncated_states():
    table = build_oscillator_table(2, OMEGA0, 3, CONSTS)
    with pytest.raises(IncompleteBasisError):
        trk_sum_rule(table, (3, 0))
    with pytest.raises(IncompleteBasisError):
        lz_expectation(table, (0, 3))


def test_sum_rule_scales_quadratically_in_elements():
    table = build_oscillator_table(2, OMEGA0, 4, CONSTS)
    doubled = replace(table, x=2 * table.x, y=2 * table.y)
    base = trk_sum_rule(table, (1, 1))
    assert trk_sum_rule(doubled, (1, 1)) == pytest.approx(4 * base, rel=1e-12)


def test_all_state_sum_rule_sweep_is_quadratic(capsys):
    # 969 states: a few tenths of a second when each per-state sum reuses the
    # table's circular pair, tens of seconds when every call rebuilds it
    start = time.perf_counter()
    code = main(["sum-rule", "--dims", "3", "--n-cut", "16"])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert code == 0
    assert elapsed < 5.0


# --- orbital angular momentum, three routes -----------------------------------


def lz_matrix_oracle(table):
    """L_z = x py - y px with momenta built from frequency gaps, test-local."""
    gaps = table.omega_array[:, None] - table.omega_array[None, :]
    px = 1j * table.mass * gaps * table.x
    py = 1j * table.mass * gaps * table.y
    return table.x @ py - table.y @ px


def test_lz_routes_agree_and_hit_eigenvalue():
    table = build_oscillator_table(2, OMEGA0, 5, CONSTS)
    oracle = lz_matrix_oracle(table)
    for label in complete_labels(table):
        i = table.lookup(label)
        pol = lz_expectation(table, label, method="polarized")
        direct = lz_expectation(table, label, method="direct")
        target = MatrixElementTable.m_ell(label) * CONSTS.hbar
        assert abs(pol - direct) < 1e-12
        assert abs(pol - target) < 1e-12
        assert abs(oracle[i, i].real - target) < 1e-12
        assert abs(oracle[i, i].imag) < 1e-12


def test_lz_unknown_method_rejected():
    table = build_oscillator_table(2, OMEGA0, 3, CONSTS)
    with pytest.raises(ValueError):
        lz_expectation(table, (0, 0), method="guess")


def test_polarized_channels_split_lz():
    table = build_oscillator_table(2, OMEGA0, 5, CONSTS)
    for label in complete_labels(table):
        m_plus, m_minus = polarized_momenta(table, label)
        lz = lz_expectation(table, label, method="polarized")
        assert m_plus + m_minus == pytest.approx(lz, abs=1e-12)
        # the two channels always sit a full hbar apart, so each one is
        # pinned to (lz +- hbar) / 2
        assert m_plus - m_minus == pytest.approx(CONSTS.hbar, rel=1e-12)
        assert m_plus == pytest.approx((lz + CONSTS.hbar) / 2, abs=1e-12)


def test_commutator_diagonal_inside_truncation():
    table = build_oscillator_table(2, OMEGA0, 5, CONSTS)
    gaps = table.omega_array[:, None] - table.omega_array[None, :]
    px = 1j * table.mass * gaps * table.x
    comm = table.x @ px - px @ table.x
    for label in table.labels:
        d = comm[table.lookup(label), table.lookup(label)]
        if table.coupling_complete(label):
            assert abs(d - 1j * CONSTS.hbar) < 1e-12
        else:
            # the top shell has no partner above it, so the canonical value
            # cannot survive there: the trace of a finite commutator is zero
            assert abs(d - 1j * CONSTS.hbar) > 0.1 * CONSTS.hbar
    assert abs(np.trace(comm)) < 1e-10


# --- exact rational splits ----------------------------------------------------


def test_spin_split_is_exact():
    half = Fraction(1, 2)
    zero = spin_split(0)
    assert (zero.m_plus, zero.m_minus) == (half, -half)
    one = spin_split(1)
    assert (one.m_plus, one.m_minus) == (1, 0)
    for lz in (-2, -1, 0, 1, 2, Fraction(3, 2)):
        split = spin_split(lz)
        assert isinstance(split.m_plus, Fraction)
        assert split.m_plus + split.m_minus == lz
        assert split.m_plus - split.m_minus == 1
        assert split.m_plus == total_momentum(lz, half)
        assert split.m_minus == total_momentum(lz, -half)


def test_total_momentum_validates_spin():
    with pytest.raises(ValueError):
        total_momentum(1, Fraction(3, 2))
    with pytest.raises(ValueError):
        total_momentum(1, 0)


# --- Zeeman weights -----------------------------------------------------------


def test_zeeman_energy_formula():
    half = Fraction(1, 2)
    consts = PhysicalConstants(hbar=1.0, c=1.0, m=1.0, mu0=0.25)
    assert zeeman_energy(2.0, 1, half, consts) == 0.25 * 2.0 * 2
    assert zeeman_energy(2.0, 1, -half, consts) == 0.0
    assert zeeman_energy(1.0, -1, -half) == -2.0
    with pytest.raises(ValueError):
        zeeman_energy(1.0, Fraction(1, 2), half)
    with pytest.raises(ValueError):
        zeeman_energy(1.0, 0, Fraction(3, 2))


def test_zeeman_levels_enumerate_basis():
    levels = zeeman_levels(2.0, NATURAL)
    assert len(levels) == 6
    assert [(m_l, m_s) for m_l, m_s, _ in levels] == [
        (m_l, m_s)
        for m_l in (-1, 0, 1)
        for m_s in (Fraction(1, 2), Fraction(-1, 2))
    ]
    for m_l, m_s, energy in levels:
        assert energy == 2.0 * (m_l + 2 * m_s)
    # doubled spin weight: flipping the spin moves twice as far as m_l by one
    by_key = {(m_l, m_s): e for m_l, m_s, e in levels}
    gap_spin = by_key[(0, Fraction(1, 2))] - by_key[(0, Fraction(-1, 2))]
    gap_orbital = by_key[(1, Fraction(1, 2))] - by_key[(0, Fraction(1, 2))]
    assert gap_spin == 2 * gap_orbital


def test_moment_identity_exact_over_basis():
    ident = magnetic_moment_identity()
    assert ident.holds
    assert len(ident.basis) == 6
    for (m_l, m_s), moment, rescaled in zip(
        ident.basis, ident.moment_in_mu0, ident.rescaled_total_in_mu0
    ):
        assert isinstance(moment, Fraction)
        assert moment == -(m_l + 2 * m_s)
        assert rescaled == -2 * (Fraction(m_l, 2) + m_s)
        assert moment == rescaled


# --- operator matrices and expansions -----------------------------------------


def test_operator_matrix_momentum_form():
    table = build_oscillator_table(3, OMEGA0, 3, CONSTS)
    gaps = table.omega_array[:, None] - table.omega_array[None, :]
    for pos, mom in (("x", "px"), ("y", "py"), ("z", "pz")):
        want = 1j * CONSTS.m * gaps * getattr(table, pos)
        assert np.max(np.abs(operator_matrix(table, mom) - want)) < 1e-13
    assert np.array_equal(operator_matrix(table, "x"), table.x)
    with pytest.raises(ValueError):
        operator_matrix(table, "q")
    flat = build_oscillator_table(2, OMEGA0, 3, CONSTS)
    with pytest.raises(ValueError):
        operator_matrix(flat, "z")


def test_expansion_product_multiplies_coefficients():
    table = build_oscillator_table(2, OMEGA0, 4, CONSTS)
    ex = build_expansion(table, "x", (1, 1))
    ey = build_expansion(table, "y", (1, 1))
    prod = expansion_product(ex, ey)
    assert np.max(np.abs(prod.coeffs - table.x @ table.y)) < 1e-12
    a = prod.alpha_index
    assert prod.diag == pytest.approx((table.x @ table.y)[a, a])


def test_expansion_product_associative():
    table = build_oscillator_table(2, OMEGA0, 4, CONSTS)
    ex = build_expansion(table, "x", (0, 1))
    ey = build_expansion(table, "y", (0, 1))
    left = expansion_product(expansion_product(ex, ey), ex)
    right = expansion_product(ex, expansion_product(ey, ex))
    assert np.max(np.abs(left.coeffs - right.coeffs)) < 1e-12


def test_expansion_product_guards_context():
    small = build_oscillator_table(2, OMEGA0, 3, CONSTS)
    other_freq = build_oscillator_table(2, 2 * OMEGA0, 3, CONSTS)
    big = build_oscillator_table(2, OMEGA0, 4, CONSTS)
    ex = build_expansion(small, "x", (0, 1))
    with pytest.raises(CoherenceError):
        expansion_product(ex, build_expansion(big, "x", (0, 1)))
    with pytest.raises(CoherenceError):
        expansion_product(ex, build_expansion(other_freq, "x", (0, 1)))
    other_ctx = phase_context(small, gamma={l: 1 for l in small.labels})
    with pytest.raises(CoherenceError):
        expansion_product(ex, build_expansion(small, "x", (0, 1), context=other_ctx))
    with pytest.raises(CoherenceError):
        expansion_product(ex, build_expansion(small, "x", (1, 0)))


def test_phase_scrambling_leaves_static_part():
    # averaging each zeta over the fourth roots of unity must kill every
    # cross term exactly, leaving the alpha-diagonal of the product
    table = build_oscillator_table(2, 1.0, 3, NATURAL)
    ctx = phase_context(table)
    alpha = (0, 1)
    prod = expansion_product(
        build_expansion(table, "x", alpha), build_expansion(table, "x", alpha)
    )
    needed = sorted({b for b, _, _, _ in prod.terms()})
    corners = [0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi]
    total = 0.0
    count = 0
    base = {ctx.zeta[l]: 0.37 for l in table.labels}
    for combo in np.ndindex(*([4] * len(needed))):
        phases = dict(base)
        for label, pick in zip(needed, combo):
            phases[ctx.zeta[label]] = corners[pick]
        total += evaluate_expansion(prod, phases, 0.9)
        count += 1
    assert abs(total / count - prod.diag) < 1e-13


def test_evaluate_needs_all_bindings():
    table = build_oscillator_table(2, 1.0, 3, NATURAL)
    ex = build_expansion(table, "x", (0, 1))
    with pytest.raises(MissingBindingError):
        evaluate_expansion(ex, {}, 0.0)


def test_context_amplitudes_are_phase_differences():
    table = build_oscillator_table(2, 1.0, 2, NATURAL)
    ctx = phase_context(table)
    amp = ctx.amplitude((0, 1), (1, 0))
    bound = amp.as_complex({ctx.zeta[(0, 1)]: 1.1, ctx.zeta[(1, 0)]: 0.4})
    assert bound == pytest.approx(np.exp(1j * (1.1 - 0.4)))
    spun = phase_context(table, gamma={(0, 1): 1, (1, 0): -1, (0, 0): 0, (0, 2): 0, (1, 1): 0, (2, 0): 0})
    amp2 = spun.amplitude((0, 1), (1, 0))
    bound2 = amp2.as_complex(
        {spun.zeta[(0, 1)]: 1.1, spun.zeta[(1, 0)]: 0.4, "phi": 0.25}
    )
    assert bound2 == pytest.approx(np.exp(1j * (1.1 - 0.4 + 2 * 0.25)))
