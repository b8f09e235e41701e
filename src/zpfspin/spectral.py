"""Spectral sums over stationary states: oscillator strengths, angular
momentum decompositions and Zeeman shifts.

The radiative sums take an oscillator table and an array of row indices
into table.states, and return one value per row. Each sum runs over the
full set of states coupled to its reference state, so each entry point
first checks that the table's shell cutoff actually contains that set for
every row; a cutoff that would silently truncate a sum raises
IncompleteBasisError instead of returning a wrong number.

Sign conventions are pinned by operator oracles, not by notation. The direct
L_z route below reproduces the diagonal of x p_y - y p_x built from the same
table, with the momenta transcribed as p_ab = i m w_ab x_ab (the package's
only such transcription; the tests build their own). The polarized route
weights the two circular coupling strengths taken as beta-alpha elements,
which is the ordering that agrees with the operator eigenvalue m_l hbar.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .constants import NATURAL, PhysicalConstants
from .errors import IncompleteBasisError
from .oscillator import MatrixElementTable

__all__ = [
    "trk_sum_rule",
    "lz_expectation",
    "polarized_momenta",
    "SpinSplit",
    "spin_split",
    "total_momentum",
    "zeeman_energy",
    "zeeman_levels",
    "MomentIdentity",
    "magnetic_moment_identity",
]

_HALF = Fraction(1, 2)

# Rows per block are chosen so that each transient array of a block holds
# at most this many elements (or one row): the peak memory stays the
# table's own matrices, and a block's complex temporaries (64 KB) stay in
# cache.
_BLOCK_ELEMENTS = 1 << 12


def _row_sums(table: MatrixElementTable, rows, terms) -> np.ndarray:
    """sum_b w_ba terms(block)[k, b] for each state a = rows[k], with
    w_ba = w_b - w_a, once the cutoff is known to hold every state coupled
    to each of them.

    terms(block) returns a C-contiguous (len(block), S) array, so each
    state's terms are summed as one row, in the order a one-row call sums
    them.
    """
    rows = np.asarray(rows, dtype=np.intp)
    truncated = rows[table.states[rows].sum(axis=1) >= table.n_cut]
    if len(truncated):
        label = tuple(int(v) for v in table.states[truncated[0]])
        raise IncompleteBasisError(
            f"shell cutoff {table.n_cut} drops states coupled to {label!r}; "
            f"rebuild the table with n_cut >= {sum(label) + 1}"
        )
    step = max(1, _BLOCK_ELEMENTS // len(table.states))
    sums = [np.zeros(0)]
    for start in range(0, len(rows), step):
        block = rows[start : start + step]
        w = table.omega_array - table.omega_array[block, None]
        sums.append(np.sum(w * terms(block), axis=1))
    return np.concatenate(sums)


def _columns(matrix: np.ndarray, block) -> np.ndarray:
    """Columns `block` of `matrix` as C-contiguous rows, copied only when
    the indexing did not already lay them out so."""
    return np.ascontiguousarray(matrix[:, block].T)


def trk_sum_rule(table: MatrixElementTable, rows) -> np.ndarray:
    """Oscillator-strength sum m * sum_b w_ba (|x+_ab|^2 + |x-_ab|^2) for
    each state a = table.states[row] of `rows`.

    Equals hbar for every state whose coupled shells sit inside the cutoff,
    independent of which circular component ordering is used.
    """

    def terms(block):
        return np.abs(table.xplus[block]) ** 2 + np.abs(table.xminus[block]) ** 2

    return table.mass * _row_sums(table, rows, terms)


def lz_expectation(table: MatrixElementTable, rows, method: str = "polarized") -> np.ndarray:
    """Orbital angular momentum about z from the spectral table, for each
    state a = table.states[row] of `rows`.

    method="direct" evaluates i m sum_b w_ba (x_ab y_ba - y_ab x_ba), the
    spectral transcription of x p_y - y p_x. method="polarized" evaluates
    m sum_b w_ba (|x+_ba|^2 - |x-_ba|^2), the difference of the two circular
    coupling strengths. Both equal m_l hbar on this basis.
    """
    if method == "polarized":

        def terms(block):
            return (
                np.abs(_columns(table.xplus, block)) ** 2
                - np.abs(_columns(table.xminus, block)) ** 2
            )

        return table.mass * _row_sums(table, rows, terms)
    if method == "direct":
        x, y = table.x, table.y

        def terms(block):
            return x[block] * _columns(y, block) - y[block] * _columns(x, block)

        return (1j * table.mass * _row_sums(table, rows, terms)).real
    raise ValueError(f"unknown method {method!r}; use 'polarized' or 'direct'")


def polarized_momenta(table: MatrixElementTable, rows) -> tuple[np.ndarray, np.ndarray]:
    """Angular momentum carried through each polarization channel, for each
    state a = table.states[row] of `rows`.

    Returns (M_plus, M_minus) with M_plus = m sum_b w_ba |x+_ba|^2 and
    M_minus = -m sum_b w_ba |x-_ba|^2; their sum is lz_expectation and their
    difference is hbar by the oscillator-strength sum.
    """
    m_plus = table.mass * _row_sums(
        table, rows, lambda block: np.abs(_columns(table.xplus, block)) ** 2
    )
    m_minus = -table.mass * _row_sums(
        table, rows, lambda block: np.abs(_columns(table.xminus, block)) ** 2
    )
    return m_plus, m_minus


def _exactify(value):
    if isinstance(value, int):
        return Fraction(value)
    return value


@dataclass(frozen=True)
class SpinSplit:
    lz: object
    m_plus: object
    m_minus: object


def spin_split(lz, hbar=1) -> SpinSplit:
    """Split one orbital expectation into the two polarized channels,
    M_+- = lz/2 +- hbar/2. Exact when called with rational inputs."""
    lz = _exactify(lz)
    half_hbar = _exactify(hbar) * _HALF
    return SpinSplit(lz=lz, m_plus=lz / 2 + half_hbar, m_minus=lz / 2 - half_hbar)


def total_momentum(orbital_lz, sigma, hbar=1):
    """Total projection orbital_lz/2 + sigma*hbar for spin sigma = +-1/2."""
    sigma = Fraction(sigma)
    if sigma not in (_HALF, -_HALF):
        raise ValueError(f"sigma must be +1/2 or -1/2, got {sigma}")
    return _exactify(orbital_lz) / 2 + sigma * _exactify(hbar)


def _check_zeeman_labels(m_l, m_s) -> tuple[int, Fraction]:
    if int(m_l) != m_l:
        raise ValueError("m_l must be an integer")
    m_s = Fraction(m_s)
    if m_s not in (_HALF, -_HALF):
        raise ValueError(f"m_s must be +1/2 or -1/2, got {m_s}")
    return int(m_l), m_s


def zeeman_energy(B: float, m_l, m_s, constants: PhysicalConstants = NATURAL) -> float:
    """First-order level shift mu0 * B * (m_l + 2 m_s).

    The doubled spin weight makes the m_s = +-1/2 pair straddle the orbital
    ladder exactly as a g-factor of two requires.
    """
    m_l, m_s = _check_zeeman_labels(m_l, m_s)
    return constants.mu0 * B * (m_l + int(2 * m_s))


def zeeman_levels(B: float, constants: PhysicalConstants = NATURAL):
    """The six (m_l, m_s) levels for m_l in {-1, 0, 1}."""
    rows = []
    for m_l in (-1, 0, 1):
        for m_s in (_HALF, -_HALF):
            rows.append((m_l, m_s, zeeman_energy(B, m_l, m_s, constants)))
    return rows


@dataclass(frozen=True)
class MomentIdentity:
    basis: tuple
    moment_in_mu0: tuple
    rescaled_total_in_mu0: tuple

    @property
    def holds(self) -> bool:
        return self.moment_in_mu0 == self.rescaled_total_in_mu0


def magnetic_moment_identity() -> MomentIdentity:
    """Check mu_hat = -(2 mu0/hbar) M_hat entrywise on the six-level basis.

    Both diagonals are computed in exact rational arithmetic (moments in mu0
    units, angular momenta in hbar units): the moment operator gives
    -(m_l + 2 m_s) while the rescaled total M_z = L_z/2 + S_z gives
    -2 (m_l/2 + m_s). Equality is exact, not approximate.
    """
    basis = []
    direct = []
    rescaled = []
    for m_l in (-1, 0, 1):
        for m_s in (_HALF, -_HALF):
            basis.append((m_l, m_s))
            direct.append(Fraction(-(m_l + 2 * m_s)))
            total = Fraction(m_l, 2) + m_s
            rescaled.append(Fraction(-2) * total)
    return MomentIdentity(
        basis=tuple(basis),
        moment_in_mu0=tuple(direct),
        rescaled_total_in_mu0=tuple(rescaled),
    )
