"""Spectral sums over oscillator matrix elements and the Zeeman levels.

The angular-momentum checks run three routes that share no intermediate
code: the polarized weight sums, the velocity-form cross terms, and a
matrix product L_z = x py - y px assembled right here in the test. The
table is in natural units, hbar = m = omega0 = 1, so every oracle here is
too; the CLI tests carry the dependence on the units.
"""

import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from zpfspin.cli import main
from zpfspin.errors import IncompleteBasisError
from zpfspin.oscillator import build_oscillator_table
from zpfspin.spectral import (
    lz_expectation,
    polarized_momenta,
    trk_sum_rule,
    zeeman_levels,
)

def complete_rows(table):
    """Rows of the states whose coupled shells lie inside the cutoff."""
    return np.flatnonzero(table.states.sum(axis=1) < table.n_cut)


def row(table, label):
    (index,) = np.flatnonzero((table.states == label).all(axis=1))
    return index


# --- oscillator-strength sum rule ---------------------------------------------


@pytest.mark.parametrize("dims", [2, 3])
def test_sum_rule_saturates_at_hbar(dims):
    table = build_oscillator_table(dims, 5)
    values = trk_sum_rule(table, complete_rows(table))
    assert len(values) == len(complete_rows(table))
    for value in values:
        assert value == pytest.approx(1.0, rel=1e-12)


def test_sum_rule_rejects_truncated_states():
    table = build_oscillator_table(2, 3)
    with pytest.raises(IncompleteBasisError, match=r"\(3, 0\)"):
        trk_sum_rule(table, [row(table, (3, 0))])
    with pytest.raises(IncompleteBasisError, match=r"\(0, 3\)"):
        lz_expectation(table, [row(table, (0, 3))])
    # one truncated row among complete ones refuses the whole call
    with pytest.raises(IncompleteBasisError, match=r"\(1, 2\)"):
        polarized_momenta(table, [0, row(table, (1, 2)), 1])


def test_sum_rule_scales_quadratically_in_elements():
    table = build_oscillator_table(2, 4)
    doubled = replace(table, x=2 * table.x, y=2 * table.y)
    base = trk_sum_rule(table, [row(table, (1, 1))])
    assert trk_sum_rule(doubled, [row(table, (1, 1))]) == pytest.approx(4 * base, rel=1e-12)


QUANTITIES = {
    "trk_sum_rule": lambda table, rows: [trk_sum_rule(table, rows)],
    "lz_direct": lambda table, rows: [lz_expectation(table, rows)],
    "polarized_momenta": lambda table, rows: list(polarized_momenta(table, rows)),
}


@pytest.mark.parametrize("quantity", sorted(QUANTITIES))
def test_all_rows_equal_one_row_calls_bit_for_bit(quantity):
    table = build_oscillator_table(3, 7)
    rows = complete_rows(table)[::-1]
    compute = QUANTITIES[quantity]
    together = compute(table, rows)
    for k, i in enumerate(rows):
        alone = compute(table, [i])
        for whole, single in zip(together, alone):
            assert single.shape == (1,)
            assert whole[k : k + 1].tobytes() == single.tobytes()


def test_no_rows_give_empty_results():
    table = build_oscillator_table(2, 3)
    for quantity in QUANTITIES.values():
        for values in quantity(table, []):
            assert values.shape == (0,)


@pytest.mark.parametrize("command", ["sum-rule", "angular-momentum"])
def test_all_state_sweep_at_3d_n_cut_80_within_ceiling(capsys, command):
    # 91881 states: a fraction of a second over the four neighbours of each
    # state, far past the size limit as dense S x S matrices (135 GB each)
    start = time.perf_counter()
    code = main([command, "--dims", "3", "--n-cut", "80"])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert code == 0
    assert elapsed < 5.0


# --- orbital angular momentum, three routes -----------------------------------


def lz_matrix_oracle(table, x, y):
    """L_z = x py - y px with momenta p = i m w x built from frequency gaps
    (m = 1), test-local."""
    gaps = table.omega_array[:, None] - table.omega_array[None, :]
    px = 1j * gaps * x
    py = 1j * gaps * y
    return x @ py - y @ px


def test_lz_routes_agree_and_hit_eigenvalue(dense):
    table = build_oscillator_table(2, 5)
    oracle = lz_matrix_oracle(table, *dense(table))
    rows = complete_rows(table)
    m_plus, m_minus = polarized_momenta(table, rows)
    pols = m_plus + m_minus
    directs = lz_expectation(table, rows)
    for i, pol, direct in zip(rows, pols, directs):
        label = table.states[i]
        target = int(label[0] - label[1])
        assert abs(pol - direct) < 1e-12
        assert abs(pol - target) < 1e-12
        assert abs(oracle[i, i].real - target) < 1e-12
        assert abs(oracle[i, i].imag) < 1e-12


def test_polarized_channels_split_lz():
    table = build_oscillator_table(2, 5)
    rows = complete_rows(table)
    # the operator route shares no code with the channel sums
    channels = zip(*polarized_momenta(table, rows), lz_expectation(table, rows))
    for m_plus, m_minus, lz in channels:
        assert m_plus + m_minus == pytest.approx(lz, abs=1e-12)
        # the two channels always sit a full hbar apart, so each one is
        # pinned to (lz +- hbar) / 2
        assert m_plus - m_minus == pytest.approx(1.0, rel=1e-12)
        assert m_plus == pytest.approx((lz + 1) / 2, abs=1e-12)


def test_commutator_diagonal_inside_truncation(dense):
    table = build_oscillator_table(2, 5)
    x, _ = dense(table)
    gaps = table.omega_array[:, None] - table.omega_array[None, :]
    px = 1j * gaps * x
    comm = x @ px - px @ x
    for label, d in zip(table.states, np.diag(comm)):
        if sum(label) + 1 <= table.n_cut:
            assert abs(d - 1j) < 1e-12
        else:
            # the top shell has no partner above it, so the canonical value
            # cannot survive there: the trace of a finite commutator is zero
            assert abs(d - 1j) > 0.1
    assert abs(np.trace(comm)) < 1e-10


# --- Zeeman weights -----------------------------------------------------------


def test_zeeman_levels_enumerate_basis():
    levels = zeeman_levels()
    assert len(levels) == 6
    assert [(m_l, m_s) for m_l, m_s, _ in levels] == [
        (m_l, m_s)
        for m_l in (-1, 0, 1)
        for m_s in (Fraction(1, 2), Fraction(-1, 2))
    ]
    for m_l, m_s, energy in levels:
        assert energy == m_l + 2 * m_s
    # doubled spin weight: flipping the spin moves twice as far as m_l by one
    by_key = {(m_l, m_s): e for m_l, m_s, e in levels}
    gap_spin = by_key[(0, Fraction(1, 2))] - by_key[(0, Fraction(-1, 2))]
    gap_orbital = by_key[(1, Fraction(1, 2))] - by_key[(0, Fraction(1, 2))]
    assert gap_spin == 2 * gap_orbital
