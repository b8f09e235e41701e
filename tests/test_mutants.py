"""Every check a report emits can fail.

A check counts only once a seeded fault has been seen to make it false
(mutation testing). Each row of MUTANTS names one check, a command line
whose report holds it and exits 0, and a fault: one library computation
replaced where the CLI or the library looks it up, never a runner nor the
_close and _exact verdicts. Under the fault the same command line must exit
1 with exactly the listed checks false, the row's own among them.
"""

import json
import re
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
import pytest

from zpfspin import cli, exchange, internal_rotation
from zpfspin.cli import main
from zpfspin.modes import Modes
from zpfspin.phase_algebra import PhaseExpression, Surd

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class Mutant:
    check: str  # a check name; "*" stands for any text, e.g. sum-rule's dims
    argv: tuple
    owner: object
    name: str
    fault: object  # fault(real) is what owner.name becomes
    failing: tuple  # every check the fault makes false, in report order

    def matches(self, check: str) -> bool:
        # re.escape, not fnmatch: "[dims=*]" is a character class to fnmatch
        return re.fullmatch(re.escape(self.check).replace(r"\*", ".+"), check) is not None


def _after(change):
    """A fault that passes each result of the real function through
    change(result, *args)."""
    return lambda real: lambda *a, **k: change(real(*a, **k), *a)


def _flip_last_gamma(realization, *args):
    m = realization.modes
    gamma = m.gamma.copy()
    gamma[-1] = -gamma[-1]
    return replace(realization, modes=Modes(m.n, gamma, m.zeta, m.phi))


def _pair_only(change):
    """change applied to the totals of a two-mode realization only."""
    return _after(lambda totals, realization, *a: change(totals) if len(realization.modes) == 2 else totals)


def _collect_keeping_zeros(pairs):
    acc = {}
    for coeff, ket in pairs:
        acc[ket] = acc[ket] + coeff if ket in acc else coeff
    return tuple(sorted(((c, k) for k, c in acc.items()), key=lambda item: item[1]))


MODE_OBSERVABLES = ("mode-observables",)
FIELD_SAMPLE = ("field-sample",)
PHASES = ("phases", "--ensemble", "200", "--pairs", "3")
SUM_RULE = ("sum-rule", "--n-cut", "4")
ANGULAR = ("angular-momentum", "--n-cut", "4")

MUTANTS = [
    # the quadrature's H, P or J off the analytic value
    Mutant(
        "energy", MODE_OBSERVABLES, cli, "mode_observables",
        _after(lambda obs, *a: replace(obs, H=obs.H * (1 + 1e-6))), ("energy",),
    ),
    Mutant(
        "momentum_error", MODE_OBSERVABLES, cli, "mode_observables",
        _after(lambda obs, *a: replace(obs, P=obs.P * (1 + 1e-6))), ("momentum_error",),
    ),
    Mutant(
        "angular_momentum_error", MODE_OBSERVABLES, cli, "mode_observables",
        _after(lambda obs, *a: replace(obs, J=obs.J * (1 + 1e-6))), ("angular_momentum_error",),
    ),
    # H depends on the drawn phase, below energy's 1e-9
    Mutant(
        "phase_independence", MODE_OBSERVABLES, cli, "mode_observables",
        _after(lambda obs, mode, *a: replace(obs, H=obs.H * (1 + 1e-11 * mode.zeta[0]))),
        ("phase_independence",),
    ),
    # one component of E stretched: linear, but no longer transverse
    Mutant(
        "transversality", FIELD_SAMPLE, cli, "sample_fields",
        _after(lambda fields, *a: (fields[0], fields[1] * np.array([1 + 1e-9, 1, 1]), fields[2])),
        ("transversality",),
    ),
    Mutant(
        "b_tracks_a", FIELD_SAMPLE, cli, "sample_fields",
        _after(lambda fields, *a: (fields[0], fields[1], fields[2] * (1 + 1e-9))), ("b_tracks_a",),
    ),
    # every field scaled by a factor that grows with the mode count
    Mutant(
        "linearity", FIELD_SAMPLE, cli, "sample_fields",
        _after(lambda fields, real, *a: tuple(f * (1 + 1e-9 * len(real.modes)) for f in fields)),
        ("linearity",),
    ),
    # the realization drawn one shell short: complete, so its totals cancel
    Mutant(
        "mode_count", ("totals", "--n-max", "2"), cli, "sample_realization",
        lambda real: lambda n_max, seed: real(n_max - 1, seed), ("mode_count",),
    ),
    Mutant(
        "total_momentum_zero", ("totals",), cli, "realization_totals",
        _after(lambda totals, *a: replace(totals, P=totals.P + 1e-12)), ("total_momentum_zero",),
    ),
    # the last mode's handedness flipped: its spin no longer cancels
    Mutant("total_spin_zero", ("totals",), cli, "sample_realization", _after(_flip_last_gamma), ("total_spin_zero",)),
    Mutant(
        "gamma_pair_spin_cancels", ("totals",), cli, "realization_totals",
        _pair_only(lambda totals: replace(totals, J=totals.J + 1.0)), ("gamma_pair_spin_cancels",),
    ),
    Mutant(
        "gamma_pair_keeps_momentum", ("totals",), cli, "realization_totals",
        _pair_only(lambda totals: replace(totals, P=0.0 * totals.P)), ("gamma_pair_keeps_momentum",),
    ),
    # every kept zeta column equal to the first: no pair is independent
    Mutant(
        "circular_mean_bound", PHASES, cli, "sample_zeta_ensemble",
        _after(lambda drawn, *a: (drawn[0], np.repeat(drawn[1][:, :1], drawn[1].shape[1], axis=1))),
        ("circular_mean_bound",),
    ),
    Mutant(
        "sum_rule_rel_err[dims=*]", SUM_RULE, cli, "trk_sum_rule",
        _after(lambda values, *a: values * (1 + 1e-9)),
        ("sum_rule_rel_err[dims=2]", "sum_rule_rel_err[dims=3]"),
    ),
    # a table that misstates its cutoff passes the top shell as complete
    Mutant(
        "incomplete_cutoff_detected[dims=*]", SUM_RULE, cli, "build_oscillator_table",
        _after(lambda table, *a: replace(table, n_cut=table.n_cut + 1)),
        ("incomplete_cutoff_detected[dims=2]", "incomplete_cutoff_detected[dims=3]"),
    ),
    Mutant(
        "routes_agree", ANGULAR, cli, "lz_expectation",
        _after(lambda lz, *a: lz * (1 + 1e-9)), ("routes_agree",),
    ),
    # x and y swapped in the state labels only: m_l changes sign
    Mutant(
        "operator_eigenvalue", ANGULAR, cli, "build_oscillator_table",
        _after(lambda table, *a: replace(table, states=table.states[:, ::-1])), ("operator_eigenvalue",),
    ),
    # the channels split unevenly, their sum kept
    Mutant(
        "channel_gap_is_hbar", ANGULAR, cli, "polarized_momenta",
        _after(lambda channels, *a: (channels[0] + 1e-9, channels[1] - 1e-9)), ("channel_gap_is_hbar",),
    ),
    # the closed form with a spin weight of 1, not 2
    Mutant(
        "levels_from_channels", ("zeeman",), cli, "zeeman_levels",
        # the levels are in units of mu0 B
        _after(lambda levels: [(m_l, m_s, e - float(m_s)) for m_l, m_s, e in levels]),
        ("levels_from_channels",),
    ),
    Mutant(
        "spin_gap_doubled", ("zeeman",), cli, "polarized_momenta",
        _after(lambda channels, *a: channels[::-1]), ("levels_from_channels", "spin_gap_doubled"),
    ),
    # b - a = 1 without the absolute value: the pair 1/2, -1/2 fails
    Mutant(
        "canonical_pair_feasible", ("dichotomy",), internal_rotation, "_unit_apart",
        lambda real: lambda a, b: a.denominator == b.denominator and b.numerator - a.numerator == a.denominator,
        ("canonical_pair_feasible",),
    ),
    Mutant(
        "canonical_sign_opposed", ("dichotomy",), cli, "dichotomy_solve",
        _after(lambda result, values: replace(result, sign_opposed=not result.sign_opposed)),
        ("canonical_sign_opposed",),
    ),
    Mutant(
        "no_feasible_triple", ("dichotomy",), cli, "dichotomy_solve",
        _after(lambda result, values: replace(result, feasible=result.feasible or len(values) == 3)),
        ("no_feasible_triple",),
    ),
    # equal values count as a unit apart: distinctness is lost
    Mutant(
        "repeated_value_infeasible", ("dichotomy",), internal_rotation, "_unit_apart",
        _after(lambda apart, a, b: apart or a == b), ("repeated_value_infeasible",),
    ),
    # the generator's sign flipped
    Mutant(
        "symbolic_eigenvalue", ("sz",), cli, "rotation_factor",
        lambda real: lambda w, t: real(-Fraction(w), t), ("symbolic_eigenvalue", "numeric_matches_symbolic"),
    ),
    Mutant(
        "numeric_matches_symbolic", ("sz",), cli, "apply_spin_z",
        _after(lambda value, *a: value * (1 + 1e-6)), ("numeric_matches_symbolic",),
    ),
    # the angle taken mod 2 pi, as if the state lived on the single cover
    Mutant(
        "full_turn_is_minus_one", ("sz",), cli, "rotation_factor",
        lambda real: lambda w, t: real(w, Fraction(t) % 2), ("full_turn_is_minus_one",),
    ),
    # a phase of 4 pi not reduced mod 2 pi
    Mutant(
        "double_turn_is_identity", ("sz",), PhaseExpression, "is_one",
        lambda real: property(lambda self: not self.coeffs and self.pi_part == 0),
        ("double_turn_is_identity",),
    ),
    Mutant(
        "derivation_consistent", ("exchange-derive",), exchange, "_proportionality",
        lambda real: lambda *a: None, ("derivation_consistent",),
    ),
    # the particle crossing the cut loses its full turn
    Mutant(
        "exchange_phase", ("exchange-derive",), exchange, "_phi_substitution",
        _after(lambda subst, branch: {sym: PhaseExpression(0, e.coeffs) for sym, e in subst.items()}),
        ("exchange_phase", "antisymmetric", "swap_factor_matches_exchange_phase", "matches_antisymmetrizer"),
    ),
    # -1 read off any numeric phase; the integer spins expect a symmetric pair
    Mutant(
        "antisymmetric", ("exchange-derive", "--spin-a", "1", "--spin-b", "1"), PhaseExpression, "is_minus_one",
        lambda real: property(lambda self: not self.coeffs), ("antisymmetric",),
    ),
    # the state exchange hands back the input unswapped
    Mutant(
        "swap_factor_matches_exchange_phase", ("exchange-derive",), exchange, "exchange_states",
        _after(lambda swapped, psi: replace(swapped, state=psi)), ("swap_factor_matches_exchange_phase",),
    ),
    Mutant(
        "matches_antisymmetrizer", ("exchange-derive",), exchange, "antisymmetrize",
        _after(lambda state, labels: exchange.negate(state)), ("matches_antisymmetrizer",),
    ),
    # the integer-spin probe built from two spin-1/2 particles
    Mutant(
        "integer_spin_probe_symmetric", ("exchange-derive",), cli, "make_bipartite",
        lambda real: lambda oa, sa, ob, sb: real(oa, HALF, ob, HALF), ("integer_spin_probe_symmetric",),
    ),
    # the antiphase constraint never checked
    Mutant(
        "feasible_iff_pair_or_less", ("antiphase",), exchange, "_pairwise_antiphase",
        lambda real: lambda angles, half_turn=1: True, ("feasible_iff_pair_or_less",),
    ),
    Mutant(
        "grid_cross_check", ("antiphase",), exchange, "_pairwise_antiphase",
        _after(lambda antiphase, angles, half_turn=1: antiphase or half_turn == 4), ("grid_cross_check",),
    ),
    Mutant(
        "term_count", ("slater",), cli, "antisymmetrize",
        _after(lambda state, labels: replace(state, terms=state.terms[:-1])),
        ("term_count", "transpositions_flip_sign", "norm_squared"),
    ),
    # every permutation counted even
    Mutant(
        "transpositions_flip_sign", ("slater",), exchange, "_lexicographic_parities",
        _after(lambda parities, n: [0] * len(parities)), ("transpositions_flip_sign",),
    ),
    # normalized by 1/n!, not 1/sqrt(n!)
    Mutant(
        "norm_squared", ("slater",), Surd, "inv_sqrt",
        lambda real: classmethod(lambda cls, n: cls(Fraction(1, n))), ("norm_squared",),
    ),
    # the two equal labels' terms summed, but their exact zero kept as a term
    Mutant(
        "repeated_label_vanishes", ("slater",), exchange, "_collect",
        lambda real: _collect_keeping_zeros, ("repeated_label_vanishes",),
    ),
]


def run(capsys, argv):
    code = main(list(argv))
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.check for m in MUTANTS])
def test_mutant_makes_its_check_false(capsys, monkeypatch, mutant):
    code, _ = run(capsys, mutant.argv)
    assert code == 0
    monkeypatch.setattr(mutant.owner, mutant.name, mutant.fault(getattr(mutant.owner, mutant.name)))
    code, body = run(capsys, mutant.argv)
    assert code == 1
    failing = tuple(c["name"] for c in body["checks"] if not c["pass"])
    assert failing == mutant.failing
    assert any(mutant.matches(name) for name in failing)


def test_every_emitted_check_has_one_mutant(capsys):
    emitted = []
    for command in cli._EXPERIMENTS:
        _, body = run(capsys, [command])
        emitted += [c["name"] for c in body["checks"]]
    for name in emitted:
        rows = [m.check for m in MUTANTS if m.matches(name)]
        assert len(rows) == 1, f"{name} has {len(rows)} mutant rows, not one: {rows}"
    # and no row stands for a check that no report emits
    for mutant in MUTANTS:
        assert any(mutant.matches(name) for name in emitted), mutant.check
    assert (len(emitted), len(MUTANTS)) == (42, 40)
