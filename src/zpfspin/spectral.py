"""Spectral sums over stationary states: oscillator strengths, angular
momentum decompositions, Zeeman shifts, and symbolic dynamical expansions.

Every radiative sum here runs over the full set of states coupled to the
reference state, so each entry point first checks that the table's shell
cutoff actually contains that set; a cutoff that would silently truncate a
sum raises IncompleteBasisError instead of returning a wrong number.

Sign conventions are pinned by operator oracles, not by notation. The direct
L_z route below reproduces the diagonal of x p_y - y p_x built from the same
table; the polarized route weights the two circular coupling strengths taken
as beta-alpha elements, which is the ordering that agrees with the operator
eigenvalue m_l hbar.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from .constants import NATURAL, PhysicalConstants
from .errors import CoherenceError, IncompleteBasisError
from .oscillator import MatrixElementTable
from .phase_algebra import PhaseExpression

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
    "PhaseContext",
    "phase_context",
    "DynamicalExpansion",
    "build_expansion",
    "operator_matrix",
    "evaluate_expansion",
    "expansion_product",
]

_HALF = Fraction(1, 2)


def _require_complete(table: MatrixElementTable, label):
    if not table.coupling_complete(label):
        raise IncompleteBasisError(
            f"shell cutoff {table.n_cut} drops states coupled to {label!r}; "
            f"rebuild the table with n_cut >= {table.shell(label) + 1}"
        )


def trk_sum_rule(table: MatrixElementTable, alpha) -> float:
    """Oscillator-strength sum m * sum_b w_ba (|x+_ab|^2 + |x-_ab|^2).

    Equals hbar for every state whose coupled shells sit inside the cutoff,
    independent of which circular component ordering is used.
    """
    i = table.lookup(alpha)
    _require_complete(table, table.states[i].label)
    w = table.omega_array - table.states[i].omega
    weights = np.abs(table.xplus[i, :]) ** 2 + np.abs(table.xminus[i, :]) ** 2
    return float(table.mass * np.sum(w * weights))


def lz_expectation(table: MatrixElementTable, alpha, method: str = "polarized") -> float:
    """Orbital angular momentum about z from the spectral table.

    method="direct" evaluates i m sum_b w_ba (x_ab y_ba - y_ab x_ba), the
    spectral transcription of x p_y - y p_x. method="polarized" evaluates
    m sum_b w_ba (|x+_ba|^2 - |x-_ba|^2), the difference of the two circular
    coupling strengths. Both equal m_l hbar on this basis.
    """
    i = table.lookup(alpha)
    _require_complete(table, table.states[i].label)
    w = table.omega_array - table.states[i].omega
    if method == "polarized":
        value = table.mass * np.sum(
            w * (np.abs(table.xplus[:, i]) ** 2 - np.abs(table.xminus[:, i]) ** 2)
        )
        return float(value)
    if method == "direct":
        x, y = table.x, table.y
        total = 1j * table.mass * np.sum(w * (x[i, :] * y[:, i] - y[i, :] * x[:, i]))
        return float(total.real)
    raise ValueError(f"unknown method {method!r}; use 'polarized' or 'direct'")


def polarized_momenta(table: MatrixElementTable, alpha) -> tuple[float, float]:
    """Angular momentum carried through each polarization channel.

    Returns (M_plus, M_minus) with M_plus = m sum_b w_ba |x+_ba|^2 and
    M_minus = -m sum_b w_ba |x-_ba|^2; their sum is lz_expectation and their
    difference is hbar by the oscillator-strength sum.
    """
    i = table.lookup(alpha)
    _require_complete(table, table.states[i].label)
    w = table.omega_array - table.states[i].omega
    m_plus = table.mass * np.sum(w * np.abs(table.xplus[:, i]) ** 2)
    m_minus = -table.mass * np.sum(w * np.abs(table.xminus[:, i]) ** 2)
    return float(m_plus), float(m_minus)


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


# --- symbolic dynamical expansions -------------------------------------------


@dataclass(frozen=True)
class PhaseContext:
    """Shared chain-rule phase bookkeeping for a family of expansions.

    Every state carries one formal phase symbol; the relative amplitude
    between states a and b is e^{i(zeta_a - zeta_b)} e^{i(gamma_a - gamma_b) phi}.
    Two expansions compose only if they agree on this data.
    """

    zeta: Mapping
    gamma: Mapping
    phi: str = "phi"

    def amplitude(self, a, b) -> PhaseExpression:
        coeffs = {self.zeta[a]: Fraction(1)}
        zb = self.zeta[b]
        coeffs[zb] = coeffs.get(zb, Fraction(0)) - 1
        dg = Fraction(self.gamma[a]) - Fraction(self.gamma[b])
        if dg != 0:
            coeffs[self.phi] = dg
        return PhaseExpression(0, coeffs)


def phase_context(table: MatrixElementTable, gamma: Mapping | None = None) -> PhaseContext:
    labels = table.labels
    if gamma is None:
        gamma = {lab: Fraction(0) for lab in labels}
    return PhaseContext(
        zeta={lab: f"zeta[{lab}]" for lab in labels},
        gamma=dict(gamma),
    )


def operator_matrix(table: MatrixElementTable, name: str) -> np.ndarray:
    """Position or canonical momentum matrix over the table's basis.

    Momenta come from the stationary-state transcription p_ab = i m w_ab x_ab.
    """
    if name in ("x", "y", "z"):
        mat = getattr(table, name)
        if mat is None:
            raise ValueError(f"{name!r} is not defined for a {table.dims}-d table")
        return mat
    if name in ("px", "py", "pz"):
        base = operator_matrix(table, name[1])
        w = table.omega_array
        return 1j * table.mass * (w[:, None] - w[None, :]) * base
    raise ValueError(f"unknown operator {name!r}")


@dataclass(frozen=True, eq=False)
class DynamicalExpansion:
    """Stationary-state expansion of one dynamical variable around `alpha`.

    The full coefficient matrix is retained (not just row alpha) because
    products recombine through intermediate states; the row view is exposed
    through diag/terms.
    """

    states: tuple
    alpha: object
    omegas: np.ndarray
    coeffs: np.ndarray
    context: PhaseContext

    @property
    def alpha_index(self) -> int:
        return self.states.index(self.alpha)

    @property
    def diag(self) -> complex:
        i = self.alpha_index
        return complex(self.coeffs[i, i])

    def terms(self):
        """Off-diagonal content of row alpha:
        (beta, coefficient, omega_ab, amplitude) with unit-modulus amplitude."""
        i = self.alpha_index
        out = []
        for j, beta in enumerate(self.states):
            if j == i or self.coeffs[i, j] == 0:
                continue
            out.append(
                (
                    beta,
                    complex(self.coeffs[i, j]),
                    float(self.omegas[i] - self.omegas[j]),
                    self.context.amplitude(self.alpha, beta),
                )
            )
        return out


def build_expansion(
    table: MatrixElementTable,
    name: str,
    alpha,
    context: PhaseContext | None = None,
) -> DynamicalExpansion:
    i = table.lookup(alpha)
    if context is None:
        context = phase_context(table)
    return DynamicalExpansion(
        states=table.labels,
        alpha=table.states[i].label,
        omegas=table.omega_array,
        coeffs=operator_matrix(table, name),
        context=context,
    )


def evaluate_expansion(exp: DynamicalExpansion, phases: Mapping, t):
    """Numeric time series G_alpha(t) with all phase symbols bound.

    phases maps symbol -> angle in radians; a symbol left unbound raises
    MissingBindingError. t may be a scalar or an array.
    """
    t = np.asarray(t, dtype=float)
    i = exp.alpha_index
    out = np.full(t.shape, complex(exp.coeffs[i, i]), dtype=complex)
    for beta, coeff, w_ab, amplitude in exp.terms():
        out = out + coeff * amplitude.as_complex(phases) * np.exp(1j * w_ab * t)
    if out.shape == ():
        return complex(out)
    return out


def expansion_product(e1: DynamicalExpansion, e2: DynamicalExpansion) -> DynamicalExpansion:
    """Compose two expansions; coefficients multiply as matrices.

    Requires chain-rule-coherent inputs: same state set, same reference
    state, same frequencies, and the same phase context, so that
    a_ab' a_b'b = a_ab holds symbol by symbol and frequencies recombine as
    w_ab' + w_b'b = w_ab with no extra bookkeeping.
    """
    if e1.states != e2.states:
        raise CoherenceError("expansions are over different state sets")
    if e1.alpha != e2.alpha:
        raise CoherenceError("expansions reference different states")
    if not np.array_equal(e1.omegas, e2.omegas):
        raise CoherenceError("expansions disagree on state frequencies")
    if e1.context != e2.context:
        raise CoherenceError("expansions do not share chain-rule phases")
    return DynamicalExpansion(
        states=e1.states,
        alpha=e1.alpha,
        omegas=e1.omegas,
        coeffs=e1.coeffs @ e2.coeffs,
        context=e1.context,
    )
