"""Isotropic harmonic oscillator position elements on an angular momentum basis.

States are labelled by circular quanta: (n_plus, n_minus) in two dimensions,
(n_plus, n_minus, n_z) in three. n_plus quanta carry +hbar of orbital angular
momentum about z and n_minus quanta -hbar, so every basis state is an L_z
eigenstate with m_l = n_plus - n_minus, while the energy depends only on the
shell number N = n_plus + n_minus (+ n_z).

With l0 = sqrt(hbar/(2 m omega0)) and circular ladder operators
b_+ = (b_x - i b_y)/sqrt(2), b_- = (b_x + i b_y)/sqrt(2), the position
in-plane position operators are

    x = (l0/sqrt2) (b_+ + b_- + b_+^dag + b_-^dag)
    y = (i l0/sqrt2) (b_+ - b_- - b_+^dag + b_-^dag)

which couple adjacent shells only and leave n_z alone. Every spectral sum
about z reads these two alone, so z is not tabulated. The equivalent
construction in the Cartesian number basis followed by a unitary change of
basis is used as an independent oracle in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import NATURAL, PhysicalConstants
from .errors import check_bytes, check_scales

__all__ = [
    "MatrixElementTable",
    "build_oscillator_table",
    "check_table_size",
    "circular_components",
]


# Neighbour slot k of a state a holds b = a - e_axis (k even) or a + e_axis
# (k odd), axis 0 for n_plus and 1 for n_minus, so the slot that leads from
# b back to a is k ^ 1.
_SLOTS = ((0, -1), (0, 1), (1, -1), (1, 1))


@dataclass(frozen=True, eq=False)
class MatrixElementTable:
    """Position matrix elements of the isotropic oscillator, shells <= n_cut.

    states is an (S, dims) integer array of labels, ordered by shell and
    then by label; row a of every other array belongs to states[a].
    omega_array holds the state frequencies omega = omega0 (N + dims/2).
    x and y couple each state only to the four states one n_plus or n_minus
    quantum away, so they are stored per neighbour slot: neighbours[a, k] is
    the row of neighbour b in slot k (see _SLOTS), or -1 where b lies
    outside the table, and x[a, k] and y[a, k] are the elements <b|x|a> and
    Im <b|y|a> (y is imaginary on this basis), zero at an absent neighbour.
    All arrays are read-only; derive modified tables with
    dataclasses.replace.
    """

    dims: int
    omega0: float
    n_cut: int
    hbar: float
    mass: float
    states: np.ndarray
    omega_array: np.ndarray = field(repr=False)
    neighbours: np.ndarray = field(repr=False)
    x: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)

    def circular(self, at) -> tuple[np.ndarray, np.ndarray]:
        """The circular elements x+ = (x + i y)/sqrt2 and x- = (i x + y)/sqrt2
        at entries `at` of the coupling arrays (rows, or any index into
        them), as two complex arrays."""
        x, y = self.x[at], 1j * self.y[at]
        root2 = math.sqrt(2.0)
        return (x + 1j * y) / root2, (1j * x + y) / root2


def _state_labels(dims: int, n_cut: int) -> np.ndarray:
    """Every label with shell <= n_cut, ordered by shell and then by label."""
    labels = np.indices((n_cut + 1,) * dims).reshape(dims, -1).T
    labels = labels[labels.sum(axis=1) <= n_cut]
    # np.indices enumerates the labels in order, so a stable sort keeps it
    return labels[np.argsort(labels.sum(axis=1), kind="stable")]


# Peak bytes per state of a sum-rule or angular-momentum run: the table
# holds 120 (2-d) or 128 (3-d) and an all-row sum about 290 more
# (tracemalloc, 424 in all at n_cut 1000 in 2-d and 100 in 3-d). The
# build's label and index cubes, up to 2 (2-d) or 6 (3-d) entries per
# state, peak lower, at about 195.
_BYTES_PER_STATE = 440


def check_table_size(dims: int, n_cut: int) -> None:
    """Raise SizeLimitError when building a dims-d table at n_cut and
    summing over all its states would exceed errors.BYTES_LIMIT."""
    size = math.comb(n_cut + dims, dims)
    check_bytes(f"a {dims}-d table at n_cut = {n_cut} ({size} states)", _BYTES_PER_STATE * size)


def _length_scale(omega0: float, constants: PhysicalConstants) -> float:
    """l0 = sqrt(hbar / (2 m omega0)). Raises ValueError when l0, the
    strength l0^2 / 2 of the matrix-element prefactor l0 / sqrt2, or the
    weight omega0 l0^2 / 2 that sets the size of every spectral-sum term is
    not a finite normal float."""
    with np.errstate(all="ignore"):
        l0 = np.sqrt(np.float64(constants.hbar) / (2.0 * constants.m * omega0))
        strength = (l0 / math.sqrt(2.0)) ** 2
        weight = omega0 * strength
    check_scales(
        f"an oscillator of frequency {omega0:g}", l0=l0, strength=strength, weight=weight
    )
    return float(l0)


def build_oscillator_table(
    dims: int,
    omega0: float,
    n_cut: int,
    constants: PhysicalConstants = NATURAL,
) -> MatrixElementTable:
    """Tabulate every state with shell <= n_cut and its position elements.

    Raises SizeLimitError, before allocating anything, when the table and
    its spectral sums would exceed errors.BYTES_LIMIT, and ValueError when
    the length scale overflows or underflows.
    """
    if dims not in (2, 3):
        raise ValueError("dims must be 2 or 3")
    if not (omega0 > 0 and math.isfinite(omega0)):
        raise ValueError("omega0 must be positive and finite")
    if int(n_cut) != n_cut or n_cut < 1:
        raise ValueError("n_cut must be a positive integer")
    n_cut = int(n_cut)
    check_table_size(dims, n_cut)
    l0 = _length_scale(omega0, constants)
    states = _state_labels(dims, n_cut)
    size = len(states)
    # one padding layer of -1 on each axis: a label one quantum below 0 or
    # above the cutoff looks up -1
    index = np.full((n_cut + 2,) * dims, -1, dtype=np.intp)
    index[tuple(states.T)] = np.arange(size)

    s = l0 / math.sqrt(2.0)
    neighbours = np.empty((size, 4), dtype=np.intp)
    x = np.empty((size, 4))
    y = np.empty((size, 4))
    for k, (axis, step) in enumerate(_SLOTS):
        label = list(states.T)
        label[axis] = label[axis] + step
        neighbours[:, k] = index[tuple(label)]
        present = neighbours[:, k] >= 0
        x[:, k] = np.where(present, s * np.sqrt(states[:, axis] + max(step, 0)), 0.0)
        # Im <b|y|a> = -x for a raised n_plus or a lowered n_minus quantum,
        # as y = (i l0/sqrt2)(b_+ - b_- - b_+^dag + b_-^dag) has it
        y[:, k] = (2 * axis - 1) * step * x[:, k]

    omega_array = omega0 * (states.sum(axis=1) + dims / 2.0)
    for arr in (states, omega_array, neighbours, x, y):
        arr.setflags(write=False)
    return MatrixElementTable(
        dims=dims,
        omega0=float(omega0),
        n_cut=n_cut,
        hbar=constants.hbar,
        mass=constants.m,
        states=states,
        omega_array=omega_array,
        neighbours=neighbours,
        x=x,
        y=y,
    )


def circular_components(table: MatrixElementTable) -> MatrixElementTable:
    """Return `table`, whose circular elements MatrixElementTable.circular
    derives from its x and y couplings on demand.

    Kept, as an identity, because the benchmark tracer traces this name.
    """
    return table
