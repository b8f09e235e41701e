"""Isotropic harmonic oscillator position elements on an angular momentum basis.

States are labelled by circular quanta: (n_plus, n_minus) in two dimensions,
(n_plus, n_minus, n_z) in three. n_plus quanta carry +hbar of orbital angular
momentum about z and n_minus quanta -hbar, so every basis state is an L_z
eigenstate with m_l = n_plus - n_minus, while the energy depends only on the
shell number N = n_plus + n_minus (+ n_z).

The table is in natural units, hbar = m = omega0 = 1: lengths in units of
sqrt(hbar/(m omega0)), frequencies in units of omega0 and angular momenta in
units of hbar. The length l0 = sqrt(hbar/(2 m omega0)) is then 1/sqrt2, and
with circular ladder operators b_+ = (b_x - i b_y)/sqrt(2),
b_- = (b_x + i b_y)/sqrt(2) the in-plane position operators are

    x = (1/2) (b_+ + b_- + b_+^dag + b_-^dag)
    y = (i/2) (b_+ - b_- - b_+^dag + b_-^dag)

which couple adjacent shells only and leave n_z alone. Every spectral sum
about z reads these two alone, so z is not tabulated. The equivalent
construction in the Cartesian number basis followed by a unitary change of
basis is used as an independent oracle in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ._lazy import np
from .errors import refuse

__all__ = [
    "MatrixElementTable",
    "build_oscillator_table",
    "table_cost",
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
    omega_array holds the state frequencies omega = N + dims/2.
    x and y couple each state only to the four states one n_plus or n_minus
    quantum away, so they are stored per neighbour slot: neighbours[a, k] is
    the row of neighbour b in slot k (see _SLOTS), or -1 where b lies
    outside the table, and x[a, k] and y[a, k] are the elements <b|x|a> and
    Im <b|y|a> (y is imaginary on this basis), zero at an absent neighbour.
    All arrays are read-only; derive modified tables with
    dataclasses.replace.
    """

    n_cut: int
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
# Peak bytes of a table run past 440 a state, whatever its size: the run's
# small objects and its report, and sum temporaries that grow with the
# table up to 2-d n_cut 90, 171 KB over (tracemalloc, 2-d n_cut 1 to 160
# and 3-d 1 to 40; 3-d at most 98 KB, at n_cut 28). From 2-d n_cut 100 on
# a run peaks at 444 a state or less.
_BYTES_PER_TABLE = 192 << 10


def table_cost(dims: int, n_cut: int) -> list:
    """The errors.refuse cost of building a dims-d table at n_cut and
    summing over all its states, in bytes."""
    size = math.comb(n_cut + dims, dims)
    what = f"a {dims}-d table at n_cut = {n_cut} ({size} states)"
    return [(what, "bytes", _BYTES_PER_STATE * size + _BYTES_PER_TABLE)]


def build_oscillator_table(dims: int, n_cut: int) -> MatrixElementTable:
    """Tabulate every state with shell <= n_cut and its position elements,
    each s sqrt(n) with s = l0/sqrt2 = 1/2.

    Raises SizeLimitError, before allocating anything, past table_cost.
    """
    if dims not in (2, 3):
        raise ValueError("dims must be 2 or 3")
    if int(n_cut) != n_cut or n_cut < 1:
        raise ValueError("n_cut must be a positive integer")
    n_cut = int(n_cut)
    refuse(table_cost(dims, n_cut))
    states = _state_labels(dims, n_cut)
    size = len(states)
    # one padding layer of -1 on each axis: a label one quantum below 0 or
    # above the cutoff looks up -1
    index = np.full((n_cut + 2,) * dims, -1, dtype=np.intp)
    index[tuple(states.T)] = np.arange(size)

    neighbours = np.empty((size, 4), dtype=np.intp)
    x = np.empty((size, 4))
    y = np.empty((size, 4))
    for k, (axis, step) in enumerate(_SLOTS):
        label = list(states.T)
        label[axis] = label[axis] + step
        neighbours[:, k] = index[tuple(label)]
        present = neighbours[:, k] >= 0
        x[:, k] = np.where(present, 0.5 * np.sqrt(states[:, axis] + max(step, 0)), 0.0)
        # Im <b|y|a> = -x for a raised n_plus or a lowered n_minus quantum,
        # as y = (i/2)(b_+ - b_- - b_+^dag + b_-^dag) has it
        y[:, k] = (2 * axis - 1) * step * x[:, k]

    omega_array = states.sum(axis=1) + dims / 2.0
    for arr in (states, omega_array, neighbours, x, y):
        arr.setflags(write=False)
    return MatrixElementTable(
        n_cut=n_cut,
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
