"""Spectral sums over stationary states: oscillator strengths, angular
momentum decompositions and Zeeman shifts.

The radiative sums take an oscillator table and an array of row indices
into table.states, and return one value per row. Each sum runs over the
full set of states coupled to its reference state, so each entry point
first checks that the table's shell cutoff actually contains that set for
every row; a cutoff that would silently truncate a sum raises
IncompleteBasisError instead of returning a wrong number.

Sign conventions are pinned by operator oracles, not by notation.
lz_expectation reproduces the diagonal of x p_y - y p_x built from the same
table, with the momenta transcribed as p_ab = i m w_ab x_ab (the package's
only such transcription; the tests build their own). The polarized route to
L_z is the sum of the two polarized_momenta channels, the circular coupling
strengths taken as beta-alpha elements, the ordering that agrees with it.
"""

from __future__ import annotations

from fractions import Fraction

from ._lazy import np
from .constants import NATURAL, PhysicalConstants
from .errors import IncompleteBasisError
from .oscillator import MatrixElementTable

__all__ = [
    "trk_sum_rule",
    "lz_expectation",
    "polarized_momenta",
    "zeeman_levels",
]

_HALF = Fraction(1, 2)

# slot k ^ 1 of a state's neighbour in slot k leads back to the state
_REVERSE = [1, 0, 3, 2]


def _gaps(table: MatrixElementTable, rows) -> tuple[np.ndarray, np.ndarray, tuple]:
    """(rows, w, back) with w[k, slot] = w_b - w_a for each state a = rows[k]
    and its neighbour b in that slot, and 0 where the slot holds no
    neighbour, once the cutoff is known to hold every state coupled to each
    of them; back indexes element ab for each element ba of `rows`, the slot
    of each neighbour b that leads back to a.

    Each term of a sum is weighted by its own w_ba, never by a difference
    of row sums, which cancels badly.
    """
    rows = np.asarray(rows, dtype=np.intp)
    truncated = rows[table.states[rows].sum(axis=1) >= table.n_cut]
    if len(truncated):
        label = tuple(int(v) for v in table.states[truncated[0]])
        raise IncompleteBasisError(
            f"shell cutoff {table.n_cut} drops states coupled to {label!r}; "
            f"rebuild the table with n_cut >= {sum(label) + 1}"
        )
    neighbours = table.neighbours[rows]
    w = table.omega_array[neighbours] - table.omega_array[rows, None]
    return rows, np.where(neighbours >= 0, w, 0.0), (neighbours, _REVERSE)


def trk_sum_rule(table: MatrixElementTable, rows) -> np.ndarray:
    """Oscillator-strength sum m * sum_b w_ba (|x+_ab|^2 + |x-_ab|^2) for
    each state a = table.states[row] of `rows`.

    Equals hbar for every state whose coupled shells sit inside the cutoff,
    independent of which circular component ordering is used.
    """
    _, w, back = _gaps(table, rows)
    xplus, xminus = table.circular(back)
    return table.mass * np.sum(w * (np.abs(xplus) ** 2 + np.abs(xminus) ** 2), axis=1)


def lz_expectation(table: MatrixElementTable, rows) -> np.ndarray:
    """Orbital angular momentum about z from the spectral table, for each
    state a = table.states[row] of `rows`.

    Evaluates i m sum_b w_ba (x_ab y_ba - y_ab x_ba), the spectral
    transcription of x p_y - y p_x, with each ab element read from the
    neighbour's slot back to a; y = i Y is imaginary, Y the stored
    coupling, so that is m sum_b w_ba (Y_ab x_ba - x_ab Y_ba). Equals m_l hbar
    on this basis.
    """
    rows, w, back = _gaps(table, rows)
    terms = table.y[back] * table.x[rows] - table.x[back] * table.y[rows]
    return table.mass * np.sum(w * terms, axis=1)


def polarized_momenta(table: MatrixElementTable, rows) -> tuple[np.ndarray, np.ndarray]:
    """Angular momentum carried through each polarization channel, for each
    state a = table.states[row] of `rows`.

    Returns (M_plus, M_minus) with M_plus = m sum_b w_ba |x+_ba|^2 and
    M_minus = -m sum_b w_ba |x-_ba|^2; their sum is the polarized route to
    L_z and their difference is hbar by the oscillator-strength sum.
    """
    rows, w, _ = _gaps(table, rows)
    xplus, xminus = table.circular(rows)
    m_plus = table.mass * np.sum(w * np.abs(xplus) ** 2, axis=1)
    m_minus = -table.mass * np.sum(w * np.abs(xminus) ** 2, axis=1)
    return m_plus, m_minus


def zeeman_levels(B: float, constants: PhysicalConstants = NATURAL):
    """The six (m_l, m_s) levels for m_l in {-1, 0, 1}, each at the
    first-order shift mu0 * B * (m_l + 2 m_s).

    The doubled spin weight makes the m_s = +-1/2 pair straddle the orbital
    ladder exactly as a g-factor of two requires.
    """
    return [
        (m_l, m_s, constants.mu0 * B * (m_l + int(2 * m_s)))
        for m_l in (-1, 0, 1)
        for m_s in (_HALF, -_HALF)
    ]
