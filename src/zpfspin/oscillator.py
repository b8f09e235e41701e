"""Isotropic harmonic oscillator position elements on an angular momentum basis.

States are labelled by circular quanta: (n_plus, n_minus) in two dimensions,
(n_plus, n_minus, n_z) in three. n_plus quanta carry +hbar of orbital angular
momentum about z and n_minus quanta -hbar, so every basis state is an L_z
eigenstate with m_l = n_plus - n_minus, while the energy depends only on the
shell number N = n_plus + n_minus (+ n_z).

With l0 = sqrt(hbar/(2 m omega0)) and circular ladder operators
b_+ = (b_x - i b_y)/sqrt(2), b_- = (b_x + i b_y)/sqrt(2), the position
operators are

    x = (l0/sqrt2) (b_+ + b_- + b_+^dag + b_-^dag)
    y = (i l0/sqrt2) (b_+ - b_- - b_+^dag + b_-^dag)
    z = l0 (b_z + b_z^dag)                   (three dimensions only)

which couple adjacent shells only. The equivalent construction in the
Cartesian number basis followed by a unitary change of basis is used as an
independent oracle in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import NATURAL, PhysicalConstants
from .errors import check_bytes, check_scales

__all__ = [
    "StationaryState",
    "MatrixElementTable",
    "build_oscillator_table",
    "check_table_size",
    "circular_components",
]


@dataclass(frozen=True)
class StationaryState:
    """One basis state and its frequency omega = E / hbar = omega0 (N + dims/2)."""

    label: tuple
    omega: float


@dataclass(frozen=True, eq=False)
class MatrixElementTable:
    """Position matrix elements of the isotropic oscillator, shells <= n_cut.

    x, y, z are dense complex matrices over the state list (z is None in two
    dimensions). The circular combinations x+ = (x + i y)/sqrt2 and
    x- = (i x + y)/sqrt2 (xplus, xminus) and the state frequencies
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
    states: tuple[StationaryState, ...]
    index: dict
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray | None
    xplus: np.ndarray = field(init=False, repr=False)
    xminus: np.ndarray = field(init=False, repr=False)
    omega_array: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        root2 = math.sqrt(2.0)
        derived = {
            "xplus": (self.x + 1j * self.y) / root2,
            "xminus": (1j * self.x + self.y) / root2,
            "omega_array": np.array([s.omega for s in self.states]),
        }
        for name, value in derived.items():
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def labels(self) -> tuple:
        return tuple(s.label for s in self.states)

    def lookup(self, label) -> int:
        try:
            return self.index[tuple(label)]
        except KeyError:
            raise ValueError(f"state {label!r} is not in the table") from None

    @staticmethod
    def shell(label) -> int:
        return sum(label)

    @staticmethod
    def m_ell(label) -> int:
        return label[0] - label[1]

    def coupling_complete(self, label) -> bool:
        """True when every state coupled to `label` lies inside the cutoff."""
        return self.shell(label) + 1 <= self.n_cut


def _state_labels(dims: int, n_cut: int) -> list[tuple]:
    labels = []
    if dims == 2:
        for p in range(n_cut + 1):
            for m in range(n_cut + 1 - p):
                labels.append((p, m))
    else:
        for p in range(n_cut + 1):
            for m in range(n_cut + 1 - p):
                for z in range(n_cut + 1 - p - m):
                    labels.append((p, m, z))
    labels.sort(key=lambda lab: (sum(lab), lab))
    return labels


def check_table_size(dims: int, n_cut: int) -> None:
    """Raise SizeLimitError when the dense matrices of a dims-d table at
    n_cut would exceed errors.BYTES_LIMIT."""
    # S = C(n_cut + dims, dims) states and dims + 2 dense S x S complex128
    # matrices: x, y (and z in three dimensions) plus the circular pair
    size = math.comb(n_cut + dims, dims)
    check_bytes(
        f"a {dims}-d table at n_cut = {n_cut} (dense matrices)",
        (dims + 2) * 16 * size * size,
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
    size = math.comb(n_cut + dims, dims)

    labels = _state_labels(dims, n_cut)
    index = {lab: i for i, lab in enumerate(labels)}
    hbar, mass = constants.hbar, constants.m
    states = tuple(
        StationaryState(label=lab, omega=omega0 * (sum(lab) + dims / 2.0)) for lab in labels
    )

    s = l0 / math.sqrt(2.0)
    x = np.zeros((size, size), dtype=complex)
    y = np.zeros((size, size), dtype=complex)
    z = np.zeros((size, size), dtype=complex) if dims == 3 else None

    for i, lab in enumerate(labels):
        p, m = lab[0], lab[1]
        raisable = sum(lab) + 1 <= n_cut
        if p > 0:
            j = index[(p - 1, m, *lab[2:])]
            x[j, i] += s * math.sqrt(p)
            y[j, i] += 1j * s * math.sqrt(p)
        if m > 0:
            j = index[(p, m - 1, *lab[2:])]
            x[j, i] += s * math.sqrt(m)
            y[j, i] += -1j * s * math.sqrt(m)
        if raisable:
            j = index[(p + 1, m, *lab[2:])]
            x[j, i] += s * math.sqrt(p + 1)
            y[j, i] += -1j * s * math.sqrt(p + 1)
            j = index[(p, m + 1, *lab[2:])]
            x[j, i] += s * math.sqrt(m + 1)
            y[j, i] += 1j * s * math.sqrt(m + 1)
        if dims == 3:
            nz = lab[2]
            if nz > 0:
                z[index[(p, m, nz - 1)], i] += l0 * math.sqrt(nz)
            if raisable:
                z[index[(p, m, nz + 1)], i] += l0 * math.sqrt(nz + 1)

    for mat in (x, y, z):
        if mat is not None:
            mat.setflags(write=False)
    return MatrixElementTable(
        dims=dims,
        omega0=float(omega0),
        n_cut=n_cut,
        hbar=hbar,
        mass=mass,
        states=states,
        index=index,
        x=x,
        y=y,
        z=z,
    )


def circular_components(table: MatrixElementTable) -> MatrixElementTable:
    """Return `table`, whose circular pair x+ = (x + i y)/sqrt2 and
    x- = (i x + y)/sqrt2 was derived when it was constructed.

    Together the two carry the same weight as the Cartesian pair,
    |x+|^2 + |x-|^2 = |x|^2 + |y|^2 per element.
    """
    return table
