"""Exchange mechanics: state swap, particle swap, phase solving, Slater sums.

The parity oracle for the antisymmetrizer is an inversion count computed
here in the test, so the sign pattern is cross-checked against first
principles rather than against the library's own bookkeeping.
"""

import hashlib
import json
import math
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zpfspin import exchange
from zpfspin import (
    ContradictionError,
    SizeLimitError,
    antiphase_feasible,
    antisymmetrize,
    apply_exchange_phase,
    derive_antisymmetry,
    entanglement_phase,
    exchange_particles,
    exchange_states,
    make_bipartite,
    negate,
    solve_exchange_phase,
    state_hash,
    state_to_dict,
)
from zpfspin.phase_algebra import (
    MINUS_ONE,
    ONE,
    Coefficient,
    PhaseExpression,
    Surd,
    phi_symbol,
    zeta_symbol,
)

H = Fraction(1, 2)


def fermion():
    return make_bipartite("alpha", H, "beta", H)


# --- construction -------------------------------------------------------------


def test_bipartite_structure():
    psi = fermion()
    assert psi.first == ("alpha", H)
    assert psi.second == ("beta", H)
    assert len(psi.terms) == 2
    for coeff, ket in psi.terms:
        assert coeff.magnitude.coeff**2 * coeff.magnitude.radicand == Fraction(1, 2)
    kets = [ket for _, ket in psi.terms]
    assert (("alpha", H), ("beta", H)) in kets
    assert (("beta", H), ("alpha", H)) in kets


def test_relative_phase_is_zeta_difference():
    psi = fermion()
    assert psi.relative_phase == entanglement_phase("alpha", "beta")
    assert entanglement_phase("alpha", "beta") * entanglement_phase(
        "beta", "alpha"
    ) == ONE


def test_orbitals_must_differ():
    with pytest.raises(ValueError):
        make_bipartite("alpha", H, "alpha", H)


def test_spins_must_be_half_integral():
    with pytest.raises(ValueError):
        make_bipartite("alpha", Fraction(1, 3), "beta", H)


def test_ket_prefactor_tracks_spins():
    want = PhaseExpression(0, {phi_symbol(1): -H, phi_symbol(2): H})
    assert exchange._prefactor((("a", H), ("b", -H))) == want
    assert exchange._prefactor((("a", Fraction(0)), ("b", Fraction(0)))) == ONE


# --- swapping the state labels ------------------------------------------------


def test_state_swap_factor_inverts_relative_phase():
    psi = fermion()
    result = exchange_states(psi)
    assert result.state == make_bipartite("beta", H, "alpha", H)
    assert result.factor == psi.relative_phase.inverse()


def test_state_swap_twice_is_identity():
    psi = fermion()
    once = exchange_states(psi)
    twice = exchange_states(once.state)
    assert twice.state == psi
    assert once.factor * twice.factor == ONE


# --- swapping the particles ---------------------------------------------------


def test_particle_swap_factor():
    psi = fermion()
    flipped = exchange_particles(psi)
    # crossing the angle cut contributes the extra half-turn on top of the
    # inverted entanglement phase
    assert flipped.factor == MINUS_ONE * psi.relative_phase.inverse()
    assert flipped.branches_agree
    assert flipped.state.first == psi.second


def test_particle_swap_orderings_agree_for_equal_spins():
    psi = fermion()
    a = exchange_particles(psi, "phi2_greater")
    b = exchange_particles(psi, "phi1_greater")
    assert a.factor == b.factor
    assert a.state == b.state


def test_particle_swap_tie_takes_the_phi2_branch():
    flipped = exchange_particles(fermion(), "tie")
    chosen = exchange_particles(fermion(), "phi2_greater")
    assert flipped.factor == chosen.factor
    assert flipped.state == chosen.state


def test_particle_swap_twice_returns_home():
    psi = fermion()
    once = exchange_particles(psi)
    twice = exchange_particles(once.state)
    assert twice.state == psi
    assert once.factor * twice.factor == ONE


def test_mixed_spins_break_branch_agreement():
    psi = make_bipartite("alpha", H, "beta", 1)
    flipped = exchange_particles(psi)
    assert not flipped.branches_agree
    assert flipped.factor is None


def test_unknown_ordering_rejected():
    with pytest.raises(ValueError):
        exchange_particles(fermion(), "sideways")


# --- proportionality ----------------------------------------------------------

_spins = st.sampled_from([Fraction(k, 2) for k in range(-3, 4)])
_exchanged_states = st.one_of(
    st.builds(make_bipartite, st.just("alpha"), _spins, st.just("beta"), _spins),
    st.lists(st.tuples(st.sampled_from("abcd"), _spins), min_size=2, max_size=4, unique=True).map(
        antisymmetrize
    ),
)
_exponents = st.fractions(min_value=-2, max_value=2, max_denominator=6)
_unit_phases = st.builds(
    PhaseExpression,
    _exponents,
    st.dictionaries(st.sampled_from([phi_symbol(1), zeta_symbol(1, "a", "b")[0]]), _exponents),
)


@given(_exchanged_states, _unit_phases, st.data())
def test_proportionality_is_one_unit_phase_per_term(state, f, data):
    ref = state.terms
    new = data.draw(st.permutations([(c.mul_phase(f), k) for c, k in ref]))
    assert exchange._proportionality(new, ref) == f
    i = data.draw(st.integers(min_value=0, max_value=len(new) - 1))
    coeff, ket = new[i]

    def replaced(term):
        return new[:i] + [term] + new[i + 1 :]

    # every magnitude here is 1/sqrt(n!) with n >= 2, so a magnitude of 1
    # differs from it with the same phase f
    for changed in (
        replaced((Coefficient(Surd(1), coeff.phase), ket)),
        replaced((coeff.mul_phase(MINUS_ONE), ket)),
        replaced((coeff, (("gamma", H),) * len(ket))),
        new[:i] + new[i + 1 :],
    ):
        assert exchange._proportionality(changed, ref) is None


# --- solving for the exchange phase -------------------------------------------


def test_solve_half_integer_gives_minus_one():
    sol = solve_exchange_phase(fermion())
    assert sol.value == MINUS_ONE
    # the constraint pins one zeta in terms of the other, half a turn apart
    assert len(sol.constraint) == 1
    sym, expr = next(iter(sol.constraint.items()))
    assert expr.pi_part % 2 == 1


@pytest.mark.parametrize("spin", [H, -H, Fraction(3, 2), Fraction(-3, 2)])
def test_solve_any_half_integer_pair(spin):
    sol = solve_exchange_phase(make_bipartite("alpha", spin, "beta", spin))
    assert sol.value == MINUS_ONE


@pytest.mark.parametrize("spin", [0, 1, 2, Fraction(-1)])
def test_solve_integer_pair_is_symmetric(spin):
    sol = solve_exchange_phase(make_bipartite("alpha", spin, "beta", spin))
    assert sol.value == ONE


def test_solve_compatible_different_spins():
    # spins differing by a whole unit still agree between orderings
    sol = solve_exchange_phase(make_bipartite("alpha", Fraction(5, 2), "beta", H))
    assert sol.value == MINUS_ONE


def test_solve_mixed_spins_contradiction():
    with pytest.raises(ContradictionError):
        solve_exchange_phase(make_bipartite("alpha", H, "beta", 1))


def test_resolved_state_is_singlet_sign_pattern():
    psi = fermion()
    resolved = apply_exchange_phase(psi, solve_exchange_phase(psi))
    assert resolved.relative_phase == MINUS_ONE
    assert resolved.terms == antisymmetrize([("alpha", H), ("beta", H)]).terms


def test_resolved_state_invariant_under_particle_swap():
    psi = fermion()
    resolved = apply_exchange_phase(psi, solve_exchange_phase(psi))
    again = exchange_particles(resolved)
    assert again.factor == ONE
    assert again.state.terms == resolved.terms


# --- full derivation report ---------------------------------------------------


@pytest.mark.parametrize("ordering", ["phi2_greater", "phi1_greater"])
def test_derivation_lands_on_antisymmetry(ordering):
    rep = derive_antisymmetry(ordering=ordering)
    assert rep.antisymmetric
    assert rep.solution.value == MINUS_ONE
    assert rep.swap_factor == MINUS_ONE
    assert rep.matches_antisymmetrizer
    assert rep.resolved_swapped.terms == negate(rep.resolved).terms


def test_derivation_trace_is_linked():
    rep = derive_antisymmetry()
    ops = [step.operation for step in rep.trace]
    assert ops == [
        "construct",
        "exchange_states",
        "exchange_particles",
        "solve_exchange_phase",
        "apply_exchange_phase",
    ]
    for step in rep.trace:
        assert len(step.input_hash) == 64
        assert len(step.output_hash) == 64
        int(step.input_hash, 16)
        int(step.output_hash, 16)
    psi_hash = state_hash(rep.initial)
    assert rep.trace[0].output_hash == psi_hash
    assert rep.trace[1].input_hash == psi_hash
    assert rep.trace[2].input_hash == psi_hash
    assert rep.trace[3].input_hash == state_hash(exchange_particles(rep.initial).state)
    assert rep.trace[3].output_hash == state_hash(rep.resolved)
    # the last step resolves the label-swapped construction, which is where
    # the bare minus sign between the two resolved states becomes visible
    assert rep.trace[4].input_hash == state_hash(exchange_states(rep.initial).state)
    assert rep.trace[4].output_hash == state_hash(rep.resolved_swapped)


@pytest.mark.parametrize("ordering", ["phi2_greater", "phi1_greater", "tie"])
def test_derivation_hashes_each_state_once(monkeypatch, ordering):
    # the trace names five states: the input, both exchanges and both
    # resolved states; the two exchanged ones are each input and output
    hashed = []
    real = exchange.state_hash

    def counted(state):
        hashed.append(state)
        return real(state)

    monkeypatch.setattr(exchange, "state_hash", counted)
    rep = derive_antisymmetry(ordering=ordering)
    assert len(hashed) == 5
    assert len({id(state) for state in hashed}) == 5
    monkeypatch.undo()
    assert rep.trace == derive_antisymmetry(ordering=ordering).trace


def test_contradicting_derivation_hashes_no_state(monkeypatch):
    # the trace is written from the finished derivation, so a contradiction
    # raises before any state is hashed
    hashed = []
    monkeypatch.setattr(exchange, "state_hash", hashed.append)
    with pytest.raises(ContradictionError):
        derive_antisymmetry(spin_a=1, spin_b=Fraction(1, 2))
    assert hashed == []


@pytest.mark.parametrize("ordering", ["phi2_greater", "phi1_greater", "tie"])
def test_derivation_exchanges_the_particles_once(monkeypatch, ordering):
    # one particle exchange evaluates both angle-ordering branches
    calls = []
    branch = exchange._exchange_branch

    def counted(psi, name):
        calls.append(name)
        return branch(psi, name)

    monkeypatch.setattr(exchange, "_exchange_branch", counted)
    derive_antisymmetry(ordering=ordering)
    assert sorted(calls) == ["phi1_greater", "phi2_greater"]


def test_derivation_report_serializes():
    rep = derive_antisymmetry()
    data = rep.to_dict()
    assert set(data) == {
        "initial",
        "value",
        "antisymmetric",
        "resolved",
        "resolved_swapped",
        "swap_factor",
        "matches_antisymmetrizer",
        "trace",
    }
    assert data["value"] == "1*pi"
    text = json.dumps(data, sort_keys=True)
    again = json.dumps(derive_antisymmetry().to_dict(), sort_keys=True)
    assert text == again


def test_state_serialization_shape():
    psi = fermion()
    data = state_to_dict(psi)
    assert data["kind"] == "bipartite"
    assert data["degenerate"] is True
    assert len(data["terms"]) == 2
    for term in data["terms"]:
        assert set(term) == {"coefficient", "ket"}
    multi = state_to_dict(antisymmetrize([("a", H), ("b", -H)]))
    assert multi["kind"] == "multiparticle"
    assert multi["n"] == 2
    assert multi["zero"] is False


def test_serialization_is_pinned():
    # digests of the serialized derivation and of a three-particle
    # antisymmetrized state, so a change to how kets serialize fails here
    text = json.dumps(derive_antisymmetry().to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "2e188b62c902410ee88b4addeb9f170365117eeee67918be74ae6e735d98548f"
    )
    state = antisymmetrize([("a", H), ("b", -H), ("c", H)])
    assert state_hash(state) == "24dcd4af89addefaa3c417b61ee9e2339a4f978622da6041beb655d7e0185ae6"


def test_state_hash_distinguishes_states():
    a = state_hash(fermion())
    b = state_hash(make_bipartite("alpha", H, "gamma", H))
    assert a == state_hash(fermion())
    assert a != b


# --- antiphase feasibility ----------------------------------------------------


def test_antiphase_small_counts():
    for n in (1, 2):
        result = antiphase_feasible(n)
        assert result.feasible
        assert result.witness is not None
        assert result.cross_check is True
    for n in (3, 4):
        result = antiphase_feasible(n)
        assert not result.feasible
        assert result.witness is None
        assert result.cross_check is True
    for n in (5, 6):
        result = antiphase_feasible(n)
        assert not result.feasible
        assert result.cross_check is None


def test_antiphase_witness_is_pairwise_opposed():
    witness = antiphase_feasible(2).witness
    assert len(witness) == 2
    assert (witness[0] - witness[1]) % 2 == 1


def test_antiphase_rejects_nonpositive():
    with pytest.raises(ValueError):
        antiphase_feasible(0)


def fraction_antiphase(angles):
    """Every pair of angles, in units of pi, differs by pi mod 2 pi."""
    return all((a - b) % 2 == 1 for a, b in combinations(angles, 2))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_integer_antiphase_grid_matches_fraction_grid(monkeypatch, n):
    # the cross-check searches the integers 0..7 in units of pi/4; each
    # verdict it reaches must be the one the Fraction(k, 4) grid gives
    real = exchange._pairwise_antiphase
    grid_verdicts = []

    def spy(angles, *args):
        verdict = real(angles, *args)
        if not any(isinstance(a, Fraction) for a in angles):
            grid_verdicts.append((angles, verdict))
        return verdict

    monkeypatch.setattr(exchange, "_pairwise_antiphase", spy)
    assert antiphase_feasible(n).cross_check is True
    assert grid_verdicts
    for angles, verdict in grid_verdicts:
        assert verdict == fraction_antiphase([Fraction(k, 4) for k in angles]), angles
    # and over the whole anchored grid, past where the search stops
    for rest in product(range(8), repeat=n - 1):
        angles = (0, *rest)
        assert real(angles, 4) == fraction_antiphase([Fraction(k, 4) for k in angles])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 10**9])
def test_antiphase_propagation_sees_at_most_three_angles(monkeypatch, n):
    # the pair (1, 2) of the anchored candidate settles n >= 3; only the
    # eighth-turn grid of n <= 4 looks at more angles
    real = exchange._pairwise_antiphase
    seen = []

    def spy(angles, *args):
        seen.append((len(angles), args))
        return real(angles, *args)

    monkeypatch.setattr(exchange, "_pairwise_antiphase", spy)
    assert antiphase_feasible(n).feasible == (n <= 2)
    assert seen[0] == (min(n, 3), ())
    assert all(size <= 3 for size, args in seen if not args)
    if n > 4:
        assert len(seen) == 1


# --- n-particle antisymmetrizer -----------------------------------------------


def inversion_sign(perm):
    flips = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if flips % 2 else 1


def test_three_particle_signs_match_parity_oracle():
    labels = [("a", H), ("b", -H), ("c", H)]
    state = antisymmetrize(labels)
    assert len(state.terms) == 6
    position = {lab: i for i, lab in enumerate(labels)}
    for coeff, ket in state.terms:
        perm = tuple(position[slot] for slot in ket)
        want = inversion_sign(perm)
        phase = coeff.phase
        assert phase == (ONE if want == 1 else MINUS_ONE)
        assert coeff.magnitude.coeff**2 * coeff.magnitude.radicand == Fraction(1, 6)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_transpositions_negate(n):
    labels = [(chr(ord("a") + i), H if i % 2 else -H) for i in range(n)]
    state = antisymmetrize(labels)
    flipped = negate(state)
    for i in range(n):
        for j in range(i + 1, n):
            swapped = list(labels)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            assert antisymmetrize(swapped).terms == flipped.terms


def test_even_permutations_preserve():
    labels = [("a", H), ("b", H), ("c", H)]
    rotated = [labels[1], labels[2], labels[0]]
    assert antisymmetrize(rotated).terms == antisymmetrize(labels).terms


def test_repeated_label_cancels_exactly():
    state = antisymmetrize([("a", H), ("a", H), ("b", H)])
    assert state.is_zero
    assert state.terms == ()


SCRAMBLED = ["q", "b", "x", "a", "m", "c", "z", "h"]


@pytest.mark.parametrize("n", range(1, 9))
def test_antisymmetrize_signs_match_inversion_count(n):
    # unsorted labels, so each sign also carries the sorting permutation's
    labels = [(SCRAMBLED[i], SPINS[(3 * i + 1) % 4]) for i in range(n)]
    position = {label: i for i, label in enumerate(labels)}
    magnitude = Surd.inv_sqrt(math.factorial(n))
    state = antisymmetrize(labels)
    assert len(state.terms) == math.factorial(n)
    for coeff, ket in state.terms:
        sign = inversion_sign([position[slot] for slot in ket])
        assert coeff.phase == (ONE if sign == 1 else MINUS_ONE), ket
        assert coeff.magnitude == magnitude


@given(st.integers(min_value=1, max_value=5))
def test_norm_is_one(n):
    labels = [(f"s{i}", H) for i in range(n)]
    state = antisymmetrize(labels)
    total = sum(
        coeff.magnitude.coeff**2 * coeff.magnitude.radicand
        for coeff, _ in state.terms
    )
    assert total == 1


def brute_force_expansion(labels):
    """Every slot assignment, signed by its inversion count and summed per
    ket, zeros dropped, in slot order: the expansion from its definition."""
    n = len(labels)
    totals = {}
    for perm in permutations(range(n)):
        slots = tuple(labels[i] for i in perm)
        totals[slots] = totals.get(slots, 0) + inversion_sign(perm)
    size = math.factorial(n)
    return [
        (Coefficient.of(Surd(Fraction(total, size), size)), slots)
        for slots, total in sorted(totals.items())
        if total
    ]


SPINS = [H, -H, Fraction(3, 2), Fraction(-3, 2)]
ORBITALS = ["q", "b", "x", "a", "m", "c"]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_antisymmetrize_matches_brute_force(n):
    # unsorted orbitals and mixed spins, so the sorting sign is exercised
    labels = [(ORBITALS[i], SPINS[(3 * i + 1) % 4]) for i in range(n)]
    want = brute_force_expansion(labels)
    got = list(antisymmetrize(labels).terms)
    assert len(got) == math.factorial(n)
    assert got == want


def test_antisymmetrize_shared_orbital_matches_brute_force():
    # one orbital under two spins: distinct labels that sort by spin
    labels = [("b", H), ("a", Fraction(-3, 2)), ("b", -H), ("a", Fraction(3, 2))]
    got = list(antisymmetrize(labels).terms)
    assert got == brute_force_expansion(labels)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_antisymmetrize_repeated_label_matches_brute_force(n):
    labels = [(ORBITALS[i], SPINS[i % 4]) for i in range(n)]
    labels[n // 2] = labels[0]
    assert brute_force_expansion(labels) == []
    state = antisymmetrize(labels)
    assert state.terms == ()
    assert state.n == n


def test_size_limit():
    labels = [(f"s{i}", H) for i in range(9)]
    with pytest.raises(SizeLimitError):
        antisymmetrize(labels)
    with pytest.raises(ValueError):
        antisymmetrize([])
