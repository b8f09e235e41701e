"""Isotropic oscillator matrix elements against two independent oracles.

Oracle one builds everything in the Cartesian number basis with explicit
ladder matrices and changes basis by applying circular creation operators
to the vacuum, so it shares no code path with the closed forms under test.
Oracle two pins the absolute length scale by Gauss-Hermite quadrature of
the one-dimensional position integral.
"""

import math
import time
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss, hermval

from zpfspin.constants import NATURAL, PhysicalConstants
from zpfspin.errors import IncompleteBasisError, SizeLimitError
from zpfspin.oscillator import build_oscillator_table, check_table_size, circular_components
from zpfspin.spectral import trk_sum_rule

CONSTS = PhysicalConstants(hbar=0.7, c=1.0, m=2.3, mu0=1.0)
OMEGA0 = 1.4


def row(table, label):
    (index,) = np.flatnonzero((table.states == label).all(axis=1))
    return index


def _cartesian_operators(axes, n_cut):
    """Ladder matrices per axis on the truncated total-shell basis."""
    basis = [
        b
        for b in np.ndindex(*([n_cut + 1] * axes))
        if sum(b) <= n_cut
    ]
    index = {b: i for i, b in enumerate(basis)}
    size = len(basis)
    lowering = []
    for axis in range(axes):
        op = np.zeros((size, size))
        for b, j in index.items():
            down = list(b)
            down[axis] -= 1
            if down[axis] >= 0:
                op[index[tuple(down)], j] = math.sqrt(b[axis])
        lowering.append(op)
    return basis, index, lowering


def _oracle_table(dims, omega0, n_cut, consts):
    """Position matrices in the circular basis, built from Cartesian parts."""
    basis, index, low = _cartesian_operators(dims, n_cut)
    x0 = math.sqrt(consts.hbar / (2 * consts.m * omega0))
    ax, ay = low[0], low[1]
    X = x0 * (ax + ax.T)
    Y = x0 * (ay + ay.T)
    raise_plus = (ax.T + 1j * ay.T) / math.sqrt(2)
    raise_minus = (ax.T - 1j * ay.T) / math.sqrt(2)
    vac = np.zeros(len(basis), dtype=complex)
    vac[index[(0,) * dims]] = 1.0

    def vector(label):
        v = vac.copy()
        for _ in range(label[0]):
            v = raise_plus @ v
        for _ in range(label[1]):
            v = raise_minus @ v
        norm = math.factorial(label[0]) * math.factorial(label[1])
        if dims == 3:
            for _ in range(label[2]):
                v = low[2].T @ v
            norm *= math.factorial(label[2])
        return v / math.sqrt(norm)

    return vector, {"x": X, "y": Y}


@pytest.mark.parametrize("dims,n_cut", [(2, 4), (3, 3)])
def test_position_matrices_match_cartesian_oracle(dense, dims, n_cut):
    table = build_oscillator_table(dims, OMEGA0, n_cut, CONSTS)
    vector, ops = _oracle_table(dims, OMEGA0, n_cut, CONSTS)
    vecs = [vector(label) for label in table.states]
    for got, op in zip(dense(table), ops.values()):
        want = np.array(
            [[np.vdot(vi, op @ vj) for vj in vecs] for vi in vecs]
        )
        assert np.max(np.abs(got - want)) < 1e-13


def test_one_dimensional_scale_by_quadrature(dense):
    # <n+1|x|n> of one Cartesian ladder, integrated numerically; the
    # circular element <(n+1, 0, 0)|x|(n, 0, 0)> carries 1/sqrt2 of it
    nodes, weights = hermgauss(60)

    def psi(k, u):
        coeffs = np.zeros(k + 1)
        coeffs[k] = 1.0
        norm = 1.0 / math.sqrt(math.sqrt(math.pi) * 2.0**k * math.factorial(k))
        return norm * hermval(u, coeffs)

    table = build_oscillator_table(3, OMEGA0, 3, CONSTS)
    x, _ = dense(table)
    scale = math.sqrt(CONSTS.hbar / (CONSTS.m * OMEGA0))
    for n in range(3):
        integral = np.sum(weights * psi(n + 1, nodes) * nodes * psi(n, nodes))
        want = scale * integral
        got = x[row(table, (n + 1, 0, 0)), row(table, (n, 0, 0))]
        assert got == pytest.approx(want / math.sqrt(2), rel=1e-12)
        assert want == pytest.approx(
            math.sqrt((n + 1) * CONSTS.hbar / (2 * CONSTS.m * OMEGA0)), rel=1e-12
        )


# --- structural properties ----------------------------------------------------


@pytest.mark.parametrize("dims", [2, 3])
def test_matrices_hermitian(dense, dims):
    table = build_oscillator_table(dims, OMEGA0, 4, CONSTS)
    for mat in dense(table):
        assert np.max(np.abs(mat - mat.conj().T)) < 1e-13


@pytest.mark.parametrize("dims", [2, 3])
def test_neighbour_slots_lead_back(dims):
    # slot k ^ 1 of the neighbour in slot k is the state itself, and a slot
    # whose label leaves the table holds -1 and zero couplings
    table = build_oscillator_table(dims, OMEGA0, 4, CONSTS)
    for a, label in enumerate(table.states.tolist()):
        for k, b in enumerate(table.neighbours[a].tolist()):
            axis, step = divmod(k, 2)
            want = list(label)
            want[axis] += 2 * step - 1
            if min(want) < 0 or sum(want) > table.n_cut:
                assert b == -1
                assert table.x[a, k] == table.y[a, k] == 0
            else:
                assert table.states[b].tolist() == want
                assert table.neighbours[b, k ^ 1] == a


def test_adjacent_shell_selection_rule(dense):
    table = build_oscillator_table(2, OMEGA0, 4, CONSTS)
    shells = table.states.sum(axis=1).tolist()
    for mat in dense(table):
        for i, si in enumerate(shells):
            for j, sj in enumerate(shells):
                if abs(si - sj) != 1:
                    assert mat[i, j] == 0


def test_m_ell_selection_rules(dense, scatter):
    table = circular_components(build_oscillator_table(3, OMEGA0, 3, CONSTS))
    m = (table.states[:, 0] - table.states[:, 1]).tolist()
    x, _ = dense(table)
    xplus, xminus = (scatter(table, part) for part in table.circular(slice(None)))
    for i, j in np.argwhere(np.abs(x) > 1e-13):
        assert abs(m[i] - m[j]) == 1
    for i, j in np.argwhere(np.abs(xplus) > 1e-13):
        assert m[i] - m[j] == 1
    for i, j in np.argwhere(np.abs(xminus) > 1e-13):
        assert m[i] - m[j] == -1


def test_circular_split_preserves_weight(dense, scatter):
    table = build_oscillator_table(2, OMEGA0, 5, CONSTS)
    assert circular_components(table) is table
    x, y = dense(table)
    xplus, xminus = (scatter(table, part) for part in table.circular(slice(None)))
    weight = np.abs(xplus) ** 2 + np.abs(xminus) ** 2
    assert np.max(np.abs(weight - (np.abs(x) ** 2 + np.abs(y) ** 2))) < 1e-13
    assert np.allclose(xplus, (x + 1j * y) / math.sqrt(2))
    assert np.allclose(xminus, (1j * x + y) / math.sqrt(2))


@pytest.mark.parametrize("dims", [2, 3])
def test_derived_arrays_are_read_only(dims):
    table = build_oscillator_table(dims, OMEGA0, 3, CONSTS)
    for name in ("states", "omega_array", "neighbours", "x", "y"):
        arr = getattr(table, name)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1
    with pytest.raises(AttributeError):
        table.x = np.zeros_like(table.x)


def test_replace_derives_circular_pair_again():
    table = build_oscillator_table(2, OMEGA0, 4, CONSTS)
    x, y = 2 * table.x, 3 * table.y
    scaled = replace(table, x=x, y=y)
    xplus, xminus = scaled.circular(slice(None))
    assert np.array_equal(xplus, (x + 1j * (1j * y)) / math.sqrt(2))
    assert np.array_equal(xminus, (1j * x + 1j * y) / math.sqrt(2))
    assert scaled.omega_array is table.omega_array


@pytest.mark.parametrize("dims", [2, 3])
def test_energies_and_frequencies(dims):
    table = build_oscillator_table(dims, OMEGA0, 3, CONSTS)
    assert table.states.shape == (len(table.omega_array), dims)
    for label, omega in zip(table.states.tolist(), table.omega_array):
        assert omega == OMEGA0 * (sum(label) + dims / 2)


def test_labels_enumerate_shells_in_order():
    table = build_oscillator_table(2, 1.0, 3, NATURAL)
    shells = table.states.sum(axis=1).tolist()
    assert shells == sorted(shells)
    assert len(table.states) == 10  # 1 + 2 + 3 + 4
    table3 = build_oscillator_table(3, 1.0, 2, NATURAL)
    assert len(table3.states) == 10  # 1 + 3 + 6
    # by shell, then by label
    want = sorted(
        (lab for lab in product(range(3), repeat=3) if sum(lab) <= 2),
        key=lambda lab: (sum(lab), lab),
    )
    assert [tuple(lab) for lab in table3.states.tolist()] == want


def test_coupling_complete_boundary():
    # a spectral sum over a state is complete when the shell above it is in
    table = build_oscillator_table(2, 1.0, 3, NATURAL)
    for i, label in enumerate(table.states.tolist()):
        if sum(label) + 1 <= table.n_cut:
            trk_sum_rule(table, [i])
        else:
            with pytest.raises(IncompleteBasisError):
                trk_sum_rule(table, [i])
    trk_sum_rule(table, [row(table, (0, 0))])
    with pytest.raises(IncompleteBasisError):
        trk_sum_rule(table, [row(table, (3, 0))])


def test_table_validation():
    table = build_oscillator_table(3, 1.0, 2, NATURAL)
    # every spectral sum about z reads x and y alone
    assert not hasattr(table, "z")
    with pytest.raises(ValueError):
        build_oscillator_table(4, 1.0, 2, NATURAL)
    with pytest.raises(ValueError):
        build_oscillator_table(2, 1.0, 0, NATURAL)
    with pytest.raises(ValueError):
        build_oscillator_table(2, -1.0, 2, NATURAL)
    for omega0 in (math.inf, math.nan):
        with pytest.raises(ValueError):
            build_oscillator_table(2, omega0, 2, NATURAL)


def test_oversized_table_refused_before_allocation():
    # C(303, 3) = 4590551 states at 440 bytes each
    start = time.perf_counter()
    with pytest.raises(SizeLimitError, match="GiB"):
        build_oscillator_table(3, 1.0, 300, NATURAL)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("dims,largest", [(2, 2207), (3, 242)])
def test_table_size_cap(dims, largest):
    # 440 bytes for each of the C(n_cut + dims, dims) states
    check_table_size(dims, largest)
    with pytest.raises(SizeLimitError, match=f"{dims}-d table at n_cut = {largest + 1}"):
        check_table_size(dims, largest + 1)


@pytest.mark.parametrize(
    "omega0,hbar,m",
    [
        (1.0, 1e300, 1e-300),  # l0 overflows
        (1e-320, 1.0, 1.0),  # l0 overflows through a subnormal frequency
        (1.0, 1e-300, 1e20),  # the squared prefactor is subnormal
        (1e20, 1e300, 1e-10),  # omega0 l0^2 overflows
    ],
)
def test_out_of_range_length_scale_refused(omega0, hbar, m):
    consts = PhysicalConstants(hbar=hbar, m=m)
    with pytest.raises(ValueError, match="normal floats"):
        build_oscillator_table(2, omega0, 2, consts)

