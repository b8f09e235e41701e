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


@dataclass(frozen=True, eq=False)
class MatrixElementTable:
    """Position matrix elements of the isotropic oscillator, shells <= n_cut.

    states is an (S, dims) integer array of labels, ordered by shell and
    then by label; row i of every matrix and of omega_array belongs to
    states[i]. x and y are dense complex matrices over those states. The
    circular combinations x+ = (x + i y)/sqrt2 and x- = (i x + y)/sqrt2
    (xplus, xminus) and the state frequencies omega = omega0 (N + dims/2)
    (omega_array) are derived from x, y and states when the table is
    constructed, so every spectral sum over the table reuses them. All
    arrays are read-only; derive modified tables with dataclasses.replace
    on fresh x and y, which derives the circular pair again.
    """

    dims: int
    omega0: float
    n_cut: int
    hbar: float
    mass: float
    states: np.ndarray
    x: np.ndarray
    y: np.ndarray
    xplus: np.ndarray = field(init=False, repr=False)
    xminus: np.ndarray = field(init=False, repr=False)
    omega_array: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        root2 = math.sqrt(2.0)
        derived = {
            "xplus": (self.x + 1j * self.y) / root2,
            "xminus": (1j * self.x + self.y) / root2,
            "omega_array": self.omega0 * (self.states.sum(axis=1) + self.dims / 2.0),
        }
        for name, value in derived.items():
            value.setflags(write=False)
            object.__setattr__(self, name, value)


def _state_labels(dims: int, n_cut: int) -> np.ndarray:
    """Every label with shell <= n_cut, ordered by shell and then by label."""
    labels = np.indices((n_cut + 1,) * dims).reshape(dims, -1).T
    labels = labels[labels.sum(axis=1) <= n_cut]
    # np.indices enumerates the labels in order, so a stable sort keeps it
    return labels[np.argsort(labels.sum(axis=1), kind="stable")]


def check_table_size(dims: int, n_cut: int) -> None:
    """Raise SizeLimitError when the dense matrices of a dims-d table at
    n_cut would exceed errors.BYTES_LIMIT."""
    # S = C(n_cut + dims, dims) states and four dense S x S complex128
    # matrices: x, y and the circular pair
    size = math.comb(n_cut + dims, dims)
    check_bytes(
        f"a {dims}-d table at n_cut = {n_cut} (dense matrices)",
        4 * 16 * size * size,
    )


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

    Raises SizeLimitError, before allocating anything, when the dense
    matrices would exceed errors.BYTES_LIMIT, and ValueError when the
    length scale overflows or underflows.
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
    index = np.zeros((n_cut + 1,) * dims, dtype=np.intp)
    index[tuple(states.T)] = np.arange(size)
    shell = states.sum(axis=1)

    # each element couples one state to one neighbour, so it is set once;
    # y is set through its imaginary part, keeping every real part +0.0
    s = l0 / math.sqrt(2.0)
    x = np.zeros((size, size), dtype=complex)
    y = np.zeros((size, size), dtype=complex)
    for axis, sign in ((0, 1.0), (1, -1.0)):  # the n_plus and n_minus quanta
        quanta = states[:, axis]
        for step, source in ((-1, quanta > 0), (1, shell < n_cut)):
            neighbour = states[source].copy()
            neighbour[:, axis] += step
            rows = index[tuple(neighbour.T)]
            cols = np.flatnonzero(source)
            value = s * np.sqrt(quanta[source] + max(step, 0))
            x[rows, cols] = value
            y.imag[rows, cols] = -step * sign * value

    for arr in (states, x, y):
        arr.setflags(write=False)
    return MatrixElementTable(
        dims=dims,
        omega0=float(omega0),
        n_cut=n_cut,
        hbar=constants.hbar,
        mass=constants.m,
        states=states,
        x=x,
        y=y,
    )


def circular_components(table: MatrixElementTable) -> MatrixElementTable:
    """Return `table`, whose circular pair x+ = (x + i y)/sqrt2 and
    x- = (i x + y)/sqrt2 was derived when it was constructed.

    Together the two carry the same weight as the Cartesian pair,
    |x+|^2 + |x-|^2 = |x|^2 + |y|^2 per element.
    """
    return table
