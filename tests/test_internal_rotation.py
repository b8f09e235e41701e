"""Winding constraint on internal phase rotation, and the generator itself."""

import json
import time
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from zpfspin.cli import main
from zpfspin.errors import ResolutionError, SizeLimitError
from zpfspin.internal_rotation import (
    DichotomyResult,
    apply_spin_z,
    dichotomy_solve,
    rotation_factor,
)
from zpfspin.phase_algebra import MINUS_ONE, ONE, PhaseExpression

HALF = Fraction(1, 2)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


# --- the two-value constraint -------------------------------------------------


def test_canonical_pair():
    result = dichotomy_solve([HALF, -HALF])
    assert result.feasible
    assert result.sign_opposed


def test_adjacent_but_not_opposed():
    result = dichotomy_solve([HALF, Fraction(3, 2)])
    assert result.feasible
    assert not result.sign_opposed


def test_repeated_value_is_infeasible():
    result = dichotomy_solve([HALF, HALF])
    assert not result.feasible


def test_singleton_is_vacuously_feasible():
    assert dichotomy_solve([Fraction(7, 3)]).feasible


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        dichotomy_solve([])


@given(st.lists(rationals, min_size=3, max_size=5, unique=True))
def test_three_or_more_values_never_feasible(values):
    assert not dichotomy_solve(values).feasible


@given(rationals)
def test_unit_gap_pairs_feasible(a):
    result = dichotomy_solve([a, a + 1])
    assert result.feasible
    assert result.sign_opposed == (a == -HALF)


@given(st.lists(rationals, min_size=1, max_size=4, unique=True))
def test_order_does_not_matter(values):
    forward = dichotomy_solve(values)
    backward = dichotomy_solve(list(reversed(values)))
    assert forward == backward


@given(st.lists(rationals, min_size=2, max_size=4, unique=True), rationals)
def test_adding_a_value_never_helps(values, extra):
    if extra in values:
        return
    before = dichotomy_solve(values)
    after = dichotomy_solve(values + [extra])
    if after.feasible:
        assert before.feasible


def test_repeated_zeros_decided_in_linear_time():
    # every pair of zeros sums to zero, so the sign condition holds to the
    # end; deciding it pair by pair took seconds at a few thousand values
    start = time.perf_counter()
    result = dichotomy_solve([Fraction(0)] * 20000)
    assert time.perf_counter() - start < 1.0
    assert (result.feasible, result.sign_opposed) == (False, True)


# the grid the `dichotomy` command searches for feasible triples
CLI_GRID = [Fraction(k, 6) for k in range(-12, 13)]


def pairwise_oracle(values):
    """(feasible, sign_opposed) from every pair, with no early exit."""
    pairs = list(combinations(values, 2))
    feasible = all(a != b and abs(a - b) == 1 for a, b in pairs)
    sign_opposed = all(a == -b for a, b in pairs)
    return feasible, sign_opposed


@pytest.mark.parametrize("size", [2, 3])
def test_dichotomy_matches_exhaustive_oracle_on_cli_grid(size):
    # every ordered pair and triple, repeats included, so each place the
    # search can stop is reached
    for values in product(CLI_GRID, repeat=size):
        result = dichotomy_solve(values)
        feasible, sign_opposed = pairwise_oracle(values)
        assert (result.feasible, result.sign_opposed) == (feasible, sign_opposed), values


def test_shared_verdicts_cannot_be_changed_by_a_caller():
    for triple in combinations(CLI_GRID, 3):
        result = dichotomy_solve(triple)
        assert type(result) is DichotomyResult
        with pytest.raises(FrozenInstanceError):
            result.feasible = True
    # replace builds a new result: the verdicts later calls return stay
    canonical = dichotomy_solve([HALF, -HALF])
    repeated = dichotomy_solve([HALF, HALF])
    replace(canonical, feasible=False, sign_opposed=False)
    replace(repeated, feasible=True, sign_opposed=False)
    again = dichotomy_solve([-HALF, HALF])
    assert (again.feasible, again.sign_opposed) == (True, True)
    again = dichotomy_solve([HALF, HALF])
    assert (again.feasible, again.sign_opposed) == (False, False)


# exact inputs of every accepted kind: Fractions of mixed signs and
# denominators, ints, and the strings a user types
MIXED_INPUTS = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
    st.fractions(min_value=-4, max_value=4, max_denominator=12).map(str),
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-4, max_value=4).map(str),
)


@given(st.lists(MIXED_INPUTS, min_size=1, max_size=4))
# numerators a denominator apart over different denominators: 1/2, 3/5
@example(["1/2", Fraction(3, 5)])
@example([Fraction(-1, 2), "1/2"])
@example([1, "2"])
@example(["-3/4", Fraction(1, 4)])
def test_dichotomy_matches_fraction_subtraction(values):
    exact = [Fraction(v) for v in values]
    result = dichotomy_solve(values)
    feasible, sign_opposed = pairwise_oracle(exact)
    assert (result.feasible, result.sign_opposed) == (feasible, sign_opposed)


def first_primes(count):
    limit = 1_400_000  # the 100000th prime is 1299709
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\x00\x00"
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return [p for p in range(limit) if sieve[p]][:count]


def test_coprime_denominators_decided_without_a_common_denominator():
    # the lcm of 10^5 distinct primes has about two million bits: a solver
    # that brings the values over a common denominator takes tens of seconds
    values = [Fraction(1, p) for p in first_primes(100_000)]
    start = time.perf_counter()
    result = dichotomy_solve(values)
    assert time.perf_counter() - start < 1.0
    assert (result.feasible, result.sign_opposed) == (False, False)


# --- the generator ------------------------------------------------------------


def test_winding_must_be_half():
    for winding in (Fraction(3, 2), 0, Fraction(1, 4)):
        with pytest.raises(ValueError, match="winding must be"):
            apply_spin_z(winding)


def test_symbolic_eigenvalue_scales_with_hbar(capsys):
    # minus the pi coefficient of the half-turn phase e^{-i w pi} is w, in
    # units of hbar, to the bit; sz reports it and the stencil's value in
    # units of hbar
    for winding in (HALF, -HALF):
        exact = -float(rotation_factor(winding, 1).pi_part)
        assert exact == float(winding)
        assert abs(apply_spin_z(winding) - exact) <= 1e-8
        assert main(["sz", f"--winding={winding}"]) == 0
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert checks["symbolic_eigenvalue"]["actual"] == float(winding)
        numeric = checks["numeric_matches_symbolic"]
        assert abs(numeric["actual"] - float(winding)) <= 1e-8


@pytest.mark.parametrize("winding", [HALF, -HALF])
@pytest.mark.parametrize("grid", [256, 300, 1024])
def test_numeric_agrees_with_symbolic(winding, grid):
    numeric = apply_spin_z(winding, grid=grid)
    assert abs(numeric - float(winding)) <= 1e-8


def test_numeric_reference_resolution():
    numeric = apply_spin_z(HALF, grid=1024)
    assert abs(numeric - 0.5) <= 1e-8


def test_numeric_needs_enough_points():
    with pytest.raises(ResolutionError):
        apply_spin_z(HALF, grid=15)
    value = apply_spin_z(HALF, grid=16)
    assert isinstance(value, float)


def test_numeric_grid_past_the_byte_limit_refused():
    # 72 bytes per point: the largest grid under 1 GiB is 14913080 points
    with pytest.raises(SizeLimitError, match="GiB"):
        apply_spin_z(HALF, grid=14_913_081)


# --- finite rotations ---------------------------------------------------------


def test_full_turn_flips_sign():
    assert rotation_factor(HALF, 2) == MINUS_ONE
    assert rotation_factor(-HALF, 2) == MINUS_ONE
    assert rotation_factor(HALF, 4) == ONE


def test_rotation_phase_is_minus_winding_times_angle():
    assert rotation_factor(HALF, 1) == PhaseExpression(-HALF)
    got = rotation_factor(-HALF, Fraction(1, 3))
    assert got == PhaseExpression(Fraction(1, 6))


@given(st.sampled_from([HALF, -HALF]), st.fractions(min_value=0, max_value=8, max_denominator=8))
def test_rotation_factors_compose(winding, theta_over_pi):
    one_step = rotation_factor(winding, theta_over_pi)
    two_step = rotation_factor(winding, theta_over_pi * 2)
    assert one_step * one_step == two_step
