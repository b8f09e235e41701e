"""Exact symbolic engine for two-particle exchange symmetry and its
n-particle consequences.

The whole derivation is phase bookkeeping, so no float ever appears here:
coefficients are exact surd magnitudes times unit phases with rational
exponent data, and state equality is structural. A ket is a plain tuple of
slots, slot p (particle p, 1-based) an (orbital str, spin Fraction) pair;
a state is a tuple of (coefficient, ket) terms. Kets do not store their
angle prefactors; slot p of a ket contributes e^{-i s phi_p} canonically
(s the spin in that slot), and any numeric residue produced by exchanging
slots and substituting angles migrates into the term coefficient, where the
solver can see it.

The two-arrangement entangled state carries a symbolic relative phase built
from per-particle mode-amplitude symbols. Exchanging which arrangement is
listed first inverts that phase; exchanging the particles themselves swaps
slot contents, swaps the particle tags on the amplitude symbols, and
relabels the internal angles by a strict rotation in one sense, which is
where the exact e^{-2 pi i s} residues come from. Imposing that particle
exchange changes nothing then pins the relative phase to a number: -1 for
half-integer spins, +1 for the integer-spin probe.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Mapping

from .errors import ContradictionError, refuse
from .phase_algebra import (
    MINUS_ONE,
    Coefficient,
    PhaseExpression,
    Surd,
    format_symbol,
    phi_symbol,
    zeta_symbol,
)

__all__ = [
    "BipartiteState",
    "MultiparticleState",
    "make_bipartite",
    "entanglement_phase",
    "StateSwapResult",
    "exchange_states",
    "ORDERINGS",
    "ParticleSwapResult",
    "exchange_particles",
    "ExchangePhaseSolution",
    "solve_exchange_phase",
    "apply_exchange_phase",
    "negate",
    "AntiphaseResult",
    "antiphase_feasible",
    "antisymmetrize",
    "ket_to_dict",
    "state_to_dict",
    "state_hash",
    "TraceStep",
    "DerivationReport",
    "derive_antisymmetry",
]

ORDERINGS = ("phi2_greater", "phi1_greater", "tie")


def _check_spin(s) -> Fraction:
    s = Fraction(s)
    if (2 * s).denominator != 1:
        raise ValueError(f"spin must be a multiple of 1/2, got {s}")
    return s


def _prefactor(ket) -> PhaseExpression:
    """The canonical angle factor of a ket: e^{-i s phi_p} from each slot p."""
    return PhaseExpression(0, {phi_symbol(p): -s for p, (_, s) in enumerate(ket, start=1)})


def _collect(pairs):
    """Sum coefficients per ket, drop exact zeros, order by slots."""
    acc: dict = {}
    for coeff, ket in pairs:
        cur = acc.get(ket)
        acc[ket] = coeff if cur is None else cur + coeff
    items = [(c, k) for k, c in acc.items() if not c.is_zero]
    items.sort(key=lambda item: item[1])
    return tuple(items)


@dataclass(frozen=True)
class BipartiteState:
    """(first arrangement + relative_phase * swapped arrangement)/sqrt(2).

    Equality compares terms only; the remaining fields are provenance.
    relative_phase is the symbolic phase the construction introduced and
    stays symbolic until the exchange constraint fixes it. The two
    arrangements share one total energy, which is what licenses superposing
    them with a time-independent relative phase; the serialized state
    records this as "degenerate": true.
    """

    terms: tuple
    relative_phase: PhaseExpression = field(compare=False)
    first: tuple = field(compare=False)
    second: tuple = field(compare=False)


@dataclass(frozen=True)
class MultiparticleState:
    terms: tuple
    n: int = field(compare=False)

    @property
    def is_zero(self) -> bool:
        return not self.terms


def entanglement_phase(orbital_a: str, orbital_b: str) -> PhaseExpression:
    """Symbolic relative phase between the two arrangements.

    Particle 1 contributes its amplitude phase difference between the two
    orbitals, particle 2 the opposite difference; label-swap antisymmetry
    of each symbol is built into the symbol encoding, so the phase built
    from swapped arguments is automatically the exact inverse.
    """
    s1, sign1 = zeta_symbol(1, orbital_a, orbital_b)
    s2, sign2 = zeta_symbol(2, orbital_b, orbital_a)
    return PhaseExpression(0, {s1: Fraction(sign1), s2: Fraction(sign2)})


def make_bipartite(orbital_a, spin_a, orbital_b, spin_b) -> BipartiteState:
    """Entangled two-particle state over two distinct orbitals.

    The orbitals must differ: the relative phase is a ratio of mode
    amplitudes between the two orbital states and is undefined otherwise.
    Spins are any multiple of 1/2; +-1/2 is the physical case, integer
    values exist for the symmetric-statistics probe.
    """
    oa, ob = str(orbital_a), str(orbital_b)
    sa, sb = _check_spin(spin_a), _check_spin(spin_b)
    if oa == ob:
        raise ValueError("the two orbital labels must be distinct")
    lam = entanglement_phase(oa, ob)
    norm = Coefficient.of(Surd.inv_sqrt(2))
    ket_a = ((oa, sa), (ob, sb))
    terms = _collect([(norm, ket_a), (norm.mul_phase(lam), ket_a[::-1])])
    return BipartiteState(terms=terms, relative_phase=lam, first=(oa, sa), second=(ob, sb))


def _proportionality(new_terms, ref_terms):
    """The unit phase f with new = f * ref, or None if no single f exists; magnitudes
    are canonical surds, so each pair must be equal, and nothing is divided."""
    if len(new_terms) != len(ref_terms):
        return None
    by_ket = {ket: coeff for coeff, ket in ref_terms}
    factor = None
    for coeff, ket in new_terms:
        base = by_ket.get(ket)
        if base is None or coeff.magnitude != base.magnitude:
            return None
        f = coeff.phase * base.phase.inverse()
        if factor is None:
            factor = f
        elif factor != f:
            return None
    return factor


@dataclass(frozen=True)
class StateSwapResult:
    state: BipartiteState
    factor: PhaseExpression


def exchange_states(psi: BipartiteState) -> StateSwapResult:
    """Swap which arrangement is listed first, keeping particles fixed.

    Rebuilds the state from the swapped construction and verifies it is
    proportional to the input; the factor is the inverse of the input's
    relative phase, reported from the term-by-term ratio rather than
    assumed.
    """
    oa, sa = psi.first
    ob, sb = psi.second
    flipped = make_bipartite(ob, sb, oa, sa)
    factor = _proportionality(flipped.terms, psi.terms)
    if factor is None:
        raise ContradictionError("swapped construction is not proportional to the input")
    return StateSwapResult(state=flipped, factor=factor)


def _phi_substitution(branch: str) -> dict:
    # strict rotation of both particles in the same sense; the particle
    # crossing the cut accumulates a full turn
    p1, p2 = phi_symbol(1), phi_symbol(2)
    if branch == "phi2_greater":
        return {p1: PhaseExpression.from_symbol(p2), p2: PhaseExpression(2, {p1: Fraction(1)})}
    return {p2: PhaseExpression.from_symbol(p1), p1: PhaseExpression(2, {p2: Fraction(1)})}


def _swap_zeta_particles(expr: PhaseExpression) -> PhaseExpression:
    # swapping the particle tags 1 and 2 maps distinct symbols to distinct symbols
    swapped = {("zeta", 3 - s[1], s[2]) if s[0] == "zeta" else s: c for s, c in expr.coeffs.items()}
    return PhaseExpression(expr.pi_part, swapped)


def _exchange_branch(psi: BipartiteState, branch: str) -> BipartiteState:
    subst = _phi_substitution(branch)
    pairs = []
    for coeff, ket in psi.terms:
        new_ket = ket[::-1]
        residual = _prefactor(ket).substitute(subst) * _prefactor(new_ket).inverse()
        if not residual.is_numeric:
            raise ContradictionError("angle relabeling left a symbolic residue")
        pairs.append((coeff.transform_phase(_swap_zeta_particles).mul_phase(residual), new_ket))
    return BipartiteState(_collect(pairs), psi.relative_phase, psi.second, psi.first)


@dataclass(frozen=True)
class ParticleSwapResult:
    state: BipartiteState
    factor: PhaseExpression | None
    branches_agree: bool


def exchange_particles(psi: BipartiteState, ordering: str = "phi2_greater") -> ParticleSwapResult:
    """Exchange the particles themselves by a same-sense rotation.

    ordering names which internal angle is the larger one; "tie" routes to
    the phi2_greater branch. Both branches are always
    evaluated and compared structurally. factor is None when the exchanged
    state is not a single multiple of the input (mixed integer/half-integer
    spins do this).
    """
    if ordering not in ORDERINGS:
        raise ValueError(f"ordering must be one of {ORDERINGS}, got {ordering!r}")
    branch = "phi2_greater" if ordering == "tie" else ordering
    other = "phi1_greater" if branch == "phi2_greater" else "phi2_greater"
    chosen = _exchange_branch(psi, branch)
    agree = chosen == _exchange_branch(psi, other)
    return ParticleSwapResult(
        state=chosen,
        factor=_proportionality(chosen.terms, psi.terms),
        branches_agree=agree,
    )


@dataclass(frozen=True)
class ExchangePhaseSolution:
    """Numeric value forced on the relative phase by exchange invariance.

    constraint maps one amplitude symbol to its forced exponent in terms of
    the other; for the antisymmetric solution it reads as the two symbols
    differing by exactly pi (antiphase coupling to the shared modes).
    """

    value: PhaseExpression
    constraint: Mapping
    exchange: ParticleSwapResult = field(compare=False)


def _pin_symbols(lam: PhaseExpression, value: PhaseExpression) -> dict:
    syms = sorted(lam.coeffs, key=format_symbol)
    if not syms:
        if lam != value:
            raise ContradictionError("numeric relative phase conflicts with the solved value")
        return {}
    dep = syms[0]
    c0 = lam.coeffs[dep]
    q = (value.pi_part - lam.pi_part) / c0
    coeffs = {s: -lam.coeffs[s] / c0 for s in syms[1:]}
    return {dep: PhaseExpression(q, coeffs)}


def solve_exchange_phase(psi: BipartiteState, ordering: str = "phi2_greater") -> ExchangePhaseSolution:
    """Impose that exchanging the particles leaves the state identical.

    The exchanged state equals (factor * psi) with factor carrying the
    inverse symbolic phase, so the identity constraint makes the product
    factor * relative_phase the solved numeric value. Anything short of a
    clean numeric value is a contradiction: disagreeing angle orderings, no
    single proportionality factor, or leftover symbols.
    """
    swap = exchange_particles(psi, ordering)
    if not swap.branches_agree:
        raise ContradictionError("the two angle orderings disagree; no consistent exchange phase")
    if swap.factor is None:
        raise ContradictionError("particle exchange is not a single overall factor")
    value = swap.factor * psi.relative_phase
    if not value.is_numeric:
        raise ContradictionError("the exchange constraint leaves the phase undetermined")
    return ExchangePhaseSolution(
        value=value,
        constraint=_pin_symbols(psi.relative_phase, value),
        exchange=swap,
    )


def apply_exchange_phase(psi: BipartiteState, solution: ExchangePhaseSolution) -> BipartiteState:
    """Substitute the solved constraint into every coefficient."""
    pairs = [
        (coeff.transform_phase(lambda p: p.substitute(solution.constraint)), ket)
        for coeff, ket in psi.terms
    ]
    return replace(
        psi,
        terms=_collect(pairs),
        relative_phase=psi.relative_phase.substitute(solution.constraint),
    )


def negate(state):
    """The same state with every coefficient's sign flipped."""
    return replace(state, terms=tuple((c.mul_phase(MINUS_ONE), k) for c, k in state.terms))


# --- antiphase feasibility ----------------------------------------------------


@dataclass(frozen=True)
class AntiphaseResult:
    feasible: bool
    witness: tuple | None
    cross_check: bool | None


def _pairwise_antiphase(assignment, half_turn=1) -> bool:
    # angles in units of pi / half_turn, constraint: every pair differs by
    # half_turn modulo a full turn
    turn = 2 * half_turn
    return all(
        (assignment[i] - assignment[j]) % turn == half_turn
        for i in range(len(assignment))
        for j in range(i + 1, len(assignment))
    )


def antiphase_feasible(n: int) -> AntiphaseResult:
    """Can n phases be pairwise in antiphase on the circle?

    Exact propagation: anchor the first angle at 0; every other angle is
    then forced to pi, and any third angle pair violates the constraint, so
    the answer is yes only for n <= 2. The candidate therefore holds the
    first min(n, 3) angles: its pair (1, 2) already fails for n >= 3, and
    for n <= 2 it is the whole witness. Angles are Fractions in units of pi.
    For n <= 4 an exhaustive eighth-turn grid search double-checks the
    propagation answer; the grid is complete because any solution is
    forced, up to the anchor, onto the two values it contains. The grid
    holds the integers 0..7 in units of pi/4, where antiphase is 4.
    """
    if n < 1:
        raise ValueError("particle count must be at least 1")
    candidate = (Fraction(0),) + (Fraction(1),) * (min(n, 3) - 1)
    feasible = _pairwise_antiphase(candidate)
    witness = candidate if feasible else None

    cross = None
    if n <= 4:
        anchored = ((0, *rest) for rest in product(range(8), repeat=n - 1))
        cross = any(_pairwise_antiphase(angles, 4) for angles in anchored) == feasible
    return AntiphaseResult(feasible=feasible, witness=witness, cross_check=cross)


# --- n-particle antisymmetrizer ----------------------------------------------


def _lexicographic_parities(n: int) -> list:
    """Parities of the permutations of range(n) in lexicographic order, the
    order itertools.permutations yields them in. The block led by element i
    moves i past the i smaller elements after it, so it holds the parities
    of the (n-1)-block, each XOR (i mod 2)."""
    parities = [0]
    for m in range(2, n + 1):
        flipped = [p ^ 1 for p in parities]
        parities = (parities + flipped) * (m // 2) + (parities if m % 2 else [])
    return parities


def antisymmetrize(labels) -> MultiparticleState:
    """Signed sum over all slot assignments, normalized by 1/sqrt(n!).

    Signs follow transposition parity. A repeated single-particle label
    gives the zero state, the algebraic face of the exclusion rule, not an
    error: each term cancels against the term with the slots of two equal
    labels swapped, the same ket at the opposite parity. One such pair is
    built and summed by _collect, never the n! terms. Distinct labels give
    n! distinct kets, ordered by their slots; the kets share the n
    normalized label tuples.
    """
    labs = [(str(o), _check_spin(s)) for o, s in labels]
    n = len(labs)
    if n < 1:
        raise ValueError("need at least one single-particle state")
    refuse([(f"an expansion of {n}! terms", "particles", n)])
    norm = Coefficient.of(Surd.inv_sqrt(math.factorial(n)))
    if len(set(labs)) < n:
        i, j = next((i, j) for i, j in combinations(range(n), 2) if labs[i] == labs[j])
        swapped = list(labs)
        swapped[i], swapped[j] = labs[j], labs[i]
        pair = [(norm, tuple(labs)), (norm.mul_phase(MINUS_ONE), tuple(swapped))]
        return MultiparticleState(terms=_collect(pair), n=n)
    # permutations of the sorted labels come out in slot order; the sign of
    # each is its own parity composed with that of the sorting permutation
    order = sorted(range(n), key=labs.__getitem__)
    base = sum(a > b for a, b in combinations(order, 2)) % 2
    signed = (norm, norm.mul_phase(MINUS_ONE))
    if base:
        signed = signed[::-1]
    terms = tuple(
        zip(
            map(signed.__getitem__, _lexicographic_parities(n)),
            permutations([labs[i] for i in order]),
        )
    )
    return MultiparticleState(terms=terms, n=n)


# --- serialization and the derivation trace ----------------------------------


def ket_to_dict(ket: tuple) -> dict:
    return {"slots": [{"orbital": o, "spin": str(s)} for o, s in ket]}


def state_to_dict(state) -> dict:
    d = {
        "terms": [
            {"coefficient": coeff.to_dict(), "ket": ket_to_dict(ket)}
            for coeff, ket in state.terms
        ]
    }
    if isinstance(state, BipartiteState):
        d["kind"] = "bipartite"
        d["relative_phase"] = state.relative_phase.format()
        d["degenerate"] = True
    else:
        d["kind"] = "multiparticle"
        d["n"] = state.n
        d["zero"] = state.is_zero
    return d


def _digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def state_hash(state) -> str:
    return _digest(state_to_dict(state))


@dataclass(frozen=True)
class TraceStep:
    operation: str
    input_hash: str
    output_hash: str
    phase: str | None


@dataclass(frozen=True)
class DerivationReport:
    """Full derivation run: states, solution, consistency flags, trace."""

    initial: BipartiteState
    solution: ExchangePhaseSolution
    resolved: BipartiteState
    resolved_swapped: BipartiteState
    swap_factor: PhaseExpression
    matches_antisymmetrizer: bool
    trace: tuple

    @property
    def antisymmetric(self) -> bool:
        return self.solution.value.is_minus_one

    def to_dict(self) -> dict:
        return {
            "initial": state_to_dict(self.initial),
            "value": self.solution.value.format(),
            "antisymmetric": self.antisymmetric,
            "resolved": state_to_dict(self.resolved),
            "resolved_swapped": state_to_dict(self.resolved_swapped),
            "swap_factor": self.swap_factor.format(),
            "matches_antisymmetrizer": self.matches_antisymmetrizer,
            "trace": [asdict(step) for step in self.trace],
        }


def derive_antisymmetry(
    spin_a=Fraction(1, 2), spin_b=Fraction(1, 2), ordering: str = "phi2_greater"
) -> DerivationReport:
    """Run the whole mechanical derivation and log each step.

    Constructs the entangled pair over the orbitals alpha and beta,
    exchanges states, exchanges particles, solves the invariance constraint,
    applies it, and checks the resolved state against both the
    swapped-ordering run and the two-particle antisymmetrizer.
    """
    # the fixed orbitals stay in the digest of the construct step
    params = {
        "orbital_a": "alpha",
        "spin_a": str(_check_spin(spin_a)),
        "orbital_b": "beta",
        "spin_b": str(_check_spin(spin_b)),
        "ordering": ordering,
    }
    psi = make_bipartite("alpha", spin_a, "beta", spin_b)
    h_psi = state_hash(psi)
    trace = [TraceStep("construct", _digest(params), h_psi, psi.relative_phase.format())]

    flipped = exchange_states(psi)
    h_flipped = state_hash(flipped.state)
    trace.append(TraceStep("exchange_states", h_psi, h_flipped, flipped.factor.format()))

    # solving exchanges the particles once, and refuses an exchange with no factor
    solution = solve_exchange_phase(psi, ordering)
    swapped = solution.exchange
    h_swapped = state_hash(swapped.state)
    trace.append(TraceStep("exchange_particles", h_psi, h_swapped, swapped.factor.format()))

    resolved = apply_exchange_phase(psi, solution)
    trace.append(
        TraceStep(
            "solve_exchange_phase", h_swapped, state_hash(resolved), solution.value.format()
        )
    )

    resolved_swapped = apply_exchange_phase(flipped.state, solution)
    swap_factor = _proportionality(resolved_swapped.terms, resolved.terms)
    if swap_factor is None:
        raise ContradictionError("resolved states are not proportional")
    trace.append(
        TraceStep(
            "apply_exchange_phase", h_flipped, state_hash(resolved_swapped), swap_factor.format()
        )
    )

    pair = antisymmetrize([psi.first, psi.second])
    return DerivationReport(
        initial=psi,
        solution=solution,
        resolved=resolved,
        resolved_swapped=resolved_swapped,
        swap_factor=swap_factor,
        matches_antisymmetrizer=solution.value.is_minus_one and pair.terms == resolved.terms,
        trace=tuple(trace),
    )
