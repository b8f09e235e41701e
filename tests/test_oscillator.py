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

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss, hermval

from zpfspin.constants import NATURAL, PhysicalConstants
from zpfspin.errors import SizeLimitError
from zpfspin.oscillator import (
    MatrixElementTable,
    build_oscillator_table,
    circular_components,
)

CONSTS = PhysicalConstants(hbar=0.7, c=1.0, m=2.3, mu0=1.0)
OMEGA0 = 1.4


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

    ops = {"x": X, "y": Y}
    if dims == 3:
        az = low[2]
        ops["z"] = x0 * (az + az.T)
    return vector, ops


@pytest.mark.parametrize("dims,n_cut", [(2, 4), (3, 3)])
def test_position_matrices_match_cartesian_oracle(dims, n_cut):
    table = build_oscillator_table(dims, OMEGA0, n_cut, CONSTS)
    vector, ops = _oracle_table(dims, OMEGA0, n_cut, CONSTS)
    vecs = [vector(label) for label in table.labels]
    for name, op in ops.items():
        got = getattr(table, name)
        want = np.array(
            [[np.vdot(vi, op @ vj) for vj in vecs] for vi in vecs]
        )
        assert np.max(np.abs(got - want)) < 1e-13


def test_one_dimensional_scale_by_quadrature():
    # <n+1|x|n> for the z ladder, integrated numerically
    nodes, weights = hermgauss(60)

    def psi(k, u):
        coeffs = np.zeros(k + 1)
        coeffs[k] = 1.0
        norm = 1.0 / math.sqrt(math.sqrt(math.pi) * 2.0**k * math.factorial(k))
        return norm * hermval(u, coeffs)

    table = build_oscillator_table(3, OMEGA0, 3, CONSTS)
    scale = math.sqrt(CONSTS.hbar / (CONSTS.m * OMEGA0))
    for n_z in range(3):
        integral = np.sum(weights * psi(n_z + 1, nodes) * nodes * psi(n_z, nodes))
        want = scale * integral
        got = table.z[table.lookup((0, 0, n_z + 1)), table.lookup((0, 0, n_z))]
        assert got == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(
            math.sqrt((n_z + 1) * CONSTS.hbar / (2 * CONSTS.m * OMEGA0)), rel=1e-12
        )


# --- structural properties ----------------------------------------------------


@pytest.mark.parametrize("dims", [2, 3])
def test_matrices_hermitian(dims):
    table = build_oscillator_table(dims, OMEGA0, 4, CONSTS)
    names = ("x", "y") if dims == 2 else ("x", "y", "z")
    for name in names:
        mat = getattr(table, name)
        assert np.max(np.abs(mat - mat.conj().T)) < 1e-13


def test_adjacent_shell_selection_rule():
    table = build_oscillator_table(2, OMEGA0, 4, CONSTS)
    shells = [MatrixElementTable.shell(l) for l in table.labels]
    for mat in (table.x, table.y):
        for i, si in enumerate(shells):
            for j, sj in enumerate(shells):
                if abs(si - sj) != 1:
                    assert mat[i, j] == 0


def test_m_ell_selection_rules():
    table = circular_components(build_oscillator_table(3, OMEGA0, 3, CONSTS))
    m = [MatrixElementTable.m_ell(l) for l in table.labels]
    for i, j in np.argwhere(np.abs(table.x) > 1e-13):
        assert abs(m[i] - m[j]) == 1
    for i, j in np.argwhere(np.abs(table.z) > 1e-13):
        assert m[i] == m[j]
    for i, j in np.argwhere(np.abs(table.xplus) > 1e-13):
        assert m[i] - m[j] == 1
    for i, j in np.argwhere(np.abs(table.xminus) > 1e-13):
        assert m[i] - m[j] == -1


def test_circular_split_preserves_weight():
    table = build_oscillator_table(2, OMEGA0, 5, CONSTS)
    assert circular_components(table) is table
    weight = np.abs(table.xplus) ** 2 + np.abs(table.xminus) ** 2
    assert np.max(np.abs(weight - (np.abs(table.x) ** 2 + np.abs(table.y) ** 2))) < 1e-13
    assert np.allclose(table.xplus, (table.x + 1j * table.y) / math.sqrt(2))
    assert np.allclose(table.xminus, (1j * table.x + table.y) / math.sqrt(2))


@pytest.mark.parametrize("dims", [2, 3])
def test_derived_arrays_are_read_only(dims):
    table = build_oscillator_table(dims, OMEGA0, 3, CONSTS)
    for name in ("xplus", "xminus", "omega_array"):
        arr = getattr(table, name)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0
    with pytest.raises(AttributeError):
        table.xplus = np.zeros_like(table.x)


def test_replace_derives_circular_pair_again():
    table = build_oscillator_table(2, OMEGA0, 4, CONSTS)
    x, y = 2 * table.x, 3 * table.y
    scaled = replace(table, x=x, y=y)
    assert np.array_equal(scaled.xplus, (x + 1j * y) / math.sqrt(2))
    assert np.array_equal(scaled.xminus, (1j * x + y) / math.sqrt(2))
    assert np.array_equal(scaled.omega_array, table.omega_array)
    assert not scaled.xplus.flags.writeable
    with pytest.raises(ValueError):
        replace(table, xplus=table.xminus)


@pytest.mark.parametrize("dims", [2, 3])
def test_energies_and_frequencies(dims):
    table = build_oscillator_table(dims, OMEGA0, 3, CONSTS)
    for state in table.states:
        shell = MatrixElementTable.shell(state.label)
        want = CONSTS.hbar * OMEGA0 * (shell + dims / 2)
        assert state.energy == pytest.approx(want, rel=1e-15)
        # omega stored as energy over hbar, exactly
        assert state.omega == state.energy / CONSTS.hbar
    assert np.array_equal(
        table.omega_array, np.array([s.omega for s in table.states])
    )


def test_labels_enumerate_shells_in_order():
    table = build_oscillator_table(2, 1.0, 3, NATURAL)
    shells = [MatrixElementTable.shell(l) for l in table.labels]
    assert shells == sorted(shells)
    assert len(table.labels) == 10  # 1 + 2 + 3 + 4
    table3 = build_oscillator_table(3, 1.0, 2, NATURAL)
    assert len(table3.labels) == 10  # 1 + 3 + 6


def test_coupling_complete_boundary():
    table = build_oscillator_table(2, 1.0, 3, NATURAL)
    for label in table.labels:
        expected = MatrixElementTable.shell(label) + 1 <= table.n_cut
        assert table.coupling_complete(label) == expected
    assert table.coupling_complete((0, 0))
    assert not table.coupling_complete((3, 0))


def test_lookup_and_validation():
    table = build_oscillator_table(2, 1.0, 2, NATURAL)
    assert table.labels[table.lookup((1, 1))] == (1, 1)
    assert table.z is None
    with pytest.raises(ValueError):
        table.lookup((5, 5))
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
    # C(43, 3) = 12341 states: five dense complex matrices of 2.4 GB each
    start = time.perf_counter()
    with pytest.raises(SizeLimitError, match="GiB"):
        build_oscillator_table(3, 1.0, 40, NATURAL)
    assert time.perf_counter() - start < 0.5


def test_m_ell_and_shell_helpers():
    assert MatrixElementTable.shell((2, 1, 3)) == 6
    assert MatrixElementTable.m_ell((2, 1, 3)) == 1
    assert MatrixElementTable.m_ell((0, 4)) == -4
