"""Acceptance gate: eleven end-to-end criteria, one test and one line each.

Run with -v to get the per-criterion pass/fail lines; each test also prints
its own summary after the asserts, so a -s run shows the measured numbers.
"""

import json
import math
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from zpfspin import (
    antiphase_feasible,
    antisymmetrize,
    apply_exchange_phase,
    build_oscillator_table,
    derive_antisymmetry,
    dichotomy_solve,
    exchange_states,
    lz_expectation,
    make_mode,
    analytic_mode_observables,
    mode_observables,
    negate,
    polarized_momenta,
    sample_zeta_ensemble,
    solve_exchange_phase,
    trk_sum_rule,
    zeeman_levels,
)
from zpfspin.cli import main
from zpfspin.errors import IncompleteBasisError
from zpfspin.phase_algebra import MINUS_ONE, ONE

HALF = Fraction(1, 2)

def test_criterion_01_quadrature_matches_closed_forms():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        n = tuple(int(v) for v in rng.integers(-4, 5, 3))
        if not any(n):
            n = (0, 0, 1)
        gamma = int(rng.choice([1, -1]))
        zeta, phi = rng.uniform(0, 2 * np.pi, 2)
        mode = make_mode(n, gamma, float(zeta), float(phi))
        obs = mode_observables(mode, 32)
        ref = analytic_mode_observables(mode)
        ref_H, ref_P, ref_J = ref.H[0], ref.P[0], ref.J[0]
        worst = max(
            worst,
            abs(obs.H - ref_H) / abs(ref_H),
            float(np.max(np.abs(obs.P - ref_P))) / float(np.linalg.norm(ref_P)),
            float(np.max(np.abs(obs.J - ref_J))) / float(np.linalg.norm(ref_J)),
        )
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 10.0
    print(
        f"criterion 01 PASS: 20 modes at 32^3, worst rel err {worst:.2e}, {elapsed:.2f}s"
    )


def test_criterion_02_phase_ensemble_average():
    start = time.perf_counter()
    count = 100_000
    # all M = 52 modes of n_max 1
    _, zetas = sample_zeta_ensemble(1, count, 123, range(52))
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        a, b = rng.choice(zetas.shape[1], size=2, replace=False)
        worst = max(worst, abs(np.mean(np.exp(1j * (zetas[:, a] - zetas[:, b])))))
    bound = 4.0 / math.sqrt(count)
    elapsed = time.perf_counter() - start
    assert worst <= bound
    assert elapsed < 5.0
    print(
        f"criterion 02 PASS: 1e5 realizations, max |mean| {worst:.4f} <= {bound:.4f}, {elapsed:.2f}s"
    )


def test_criterion_03_sum_rule_and_cutoff_detection():
    for dims in (2, 3):
        table = build_oscillator_table(dims, 5)
        shells = table.states.sum(axis=1)
        checked = 0
        for value in trk_sum_rule(table, np.flatnonzero(shells < table.n_cut)):
            checked += 1
            assert value == pytest.approx(1.0, rel=1e-12)
        assert checked >= 15
        top = np.flatnonzero(shells == table.n_cut)[:1]
        with pytest.raises(IncompleteBasisError):
            trk_sum_rule(table, top)
    print("criterion 03 PASS: sum rule saturates for shells <= 4 in 2-d and 3-d")


def test_criterion_04_angular_momentum_two_routes():
    table = build_oscillator_table(2, 5)
    m_ell = table.states[:, 0] - table.states[:, 1]
    complete = table.states.sum(axis=1) < table.n_cut
    rows = np.flatnonzero(complete & (np.abs(m_ell) <= 3))
    m_plus, m_minus = polarized_momenta(table, rows)
    pols = m_plus + m_minus
    directs = lz_expectation(table, rows)
    seen = set()
    for m, pol, direct in zip(m_ell[rows].tolist(), pols, directs):
        assert abs(pol - direct) <= 1e-12
        assert abs(pol - m) <= 1e-12
        seen.add(m)
    assert seen == set(range(-3, 4))
    print("criterion 04 PASS: both L_z routes hit m*hbar for |m| <= 3")


def test_criterion_05_spin_split_exact():
    # the spin channels are measured from the table, not restated
    table = build_oscillator_table(2, 5)
    m_ell = table.states[:, 0] - table.states[:, 1]
    complete = table.states.sum(axis=1) < table.n_cut
    rows = np.flatnonzero(complete & (np.abs(m_ell) <= 2))
    m_plus, m_minus = polarized_momenta(table, rows)
    seen = set()
    for m, plus, minus in zip(m_ell[rows].tolist(), m_plus, m_minus):
        assert abs(plus - (m + 1) / 2) <= 1e-12
        assert abs(minus - (m - 1) / 2) <= 1e-12
        seen.add(m)
    assert seen == set(range(-2, 3))
    print("criterion 05 PASS: table channels M+- = (m_l +- 1)/2 hbar for m_l in -2..2")


def test_criterion_06_zeeman_weights(capsys):
    levels = zeeman_levels()
    assert [(m_l, m_s) for m_l, m_s, _ in levels] == [
        (m_l, m_s) for m_l in (-1, 0, 1) for m_s in (HALF, -HALF)
    ]
    for m_l, m_s, energy in levels:
        assert energy == m_l + 2 * m_s
    # the moment mu = -(2 mu0/hbar) M of each measured channel of shells 0
    # and 1 carries the doubled spin weight: -2 M+- = -(m_l +- 1)
    table = build_oscillator_table(2, 2)
    rows = np.flatnonzero(table.states.sum(axis=1) < 2)
    m_ell = (table.states[rows, 0] - table.states[rows, 1]).tolist()
    for sign, channel in zip((1, -1), polarized_momenta(table, rows)):
        for m, value in zip(m_ell, channel):
            moment, expected = -2 * value, -(m + sign)
            assert abs(moment - expected) <= 1e-12
    assert sorted(m_ell) == [-1, 0, 1]
    assert main(["zeeman"]) == 0
    capsys.readouterr()
    print("criterion 06 PASS: six-state level pattern and measured moment identity")


def test_criterion_07_dichotomy():
    canonical = dichotomy_solve([HALF, -HALF])
    assert canonical.feasible
    assert canonical.sign_opposed
    grid = [Fraction(k, 6) for k in range(-12, 13)]
    assert all(
        not dichotomy_solve(triple).feasible for triple in combinations(grid, 3)
    )
    assert not dichotomy_solve([HALF, HALF]).feasible
    print("criterion 07 PASS: no three-value set survives, canonical pair feasible and sign-opposed")


def test_criterion_08_exchange_derivation():
    start = time.perf_counter()
    for ordering in ("phi2_greater", "phi1_greater"):
        rep = derive_antisymmetry(ordering=ordering)
        assert rep.solution.value == MINUS_ONE
        assert rep.antisymmetric
        assert rep.matches_antisymmetrizer
        # resolved swapped construction is exactly the negated original
        assert rep.swap_factor == MINUS_ONE
        assert rep.resolved_swapped.terms == negate(rep.resolved).terms
        assert rep.resolved.terms == antisymmetrize(
            [("alpha", HALF), ("beta", HALF)]
        ).terms
    boson = derive_antisymmetry(spin_a=1, spin_b=1)
    assert boson.solution.value == ONE
    assert not boson.antisymmetric
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 08 PASS: exchange phase -1 both orderings, boson +1, {elapsed:.3f}s")


def test_criterion_09_antiphase_feasibility():
    for n in range(1, 7):
        result = antiphase_feasible(n)
        assert result.feasible == (n <= 2)
        if n <= 4:
            assert result.cross_check is True
    print("criterion 09 PASS: pairwise antiphase possible only for n <= 2")


def test_criterion_10_antisymmetrizer_scales():
    start = time.perf_counter()
    for n in range(2, 6):
        labels = [(f"s{i}", HALF) for i in range(n)]
        state = antisymmetrize(labels)
        assert len(state.terms) == math.factorial(n)
        flipped = negate(state)
        swapped = [labels[1], labels[0], *labels[2:]]
        assert antisymmetrize(swapped).terms == flipped.terms
    assert antisymmetrize([("x", HALF), ("x", HALF)]).is_zero
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"criterion 10 PASS: Slater construction through n=5, {elapsed:.2f}s")


def test_criterion_11_quadrature_at_fine_grid(capsys):
    # a grid whose grid^3 points would need 14.5 TiB takes one point per phase
    start = time.perf_counter()
    code = main(["mode-observables", "--grid", "4096", "--n", "7,-3,5"])
    report = json.loads(capsys.readouterr().out)
    elapsed = time.perf_counter() - start
    assert code == 0
    assert all(check["pass"] for check in report["checks"])
    assert elapsed < 5.0
    print(f"criterion 11 PASS: mode-observables at grid 4096, {elapsed:.2f}s")
