"""Command-line front end: run each verification experiment, emit a
machine-readable JSON report, exit 0/1/2/3.

Every subcommand maps to library operations and wraps their contracts as
self-describing checks {name, expected, actual, tolerance, pass}, so a CI
job can gate on the report without re-deriving any physics. Reports are
deterministic for a fixed (command, config, seed) apart from the wall-time
field. Config precedence is defaults < config file < flags; the config file
is flat key=value text with # comments, its keys the dests of the options
the command reads plus tol.<name> overrides of the tolerances it declares.

Each subcommand is declared once, by the @_experiment decorator on its
runner, which lists the Options the runner reads (shared ones such as N_MAX
are module constants; --seed is on every command) and the cost of a run,
which main refuses past errors.LIMITS before the runner starts. The parser, its
--help, the config keys and the report's config (each option in declaration
order, then the tolerance overrides) are derived from that list, so a flag
or key the command does not read exits 2. Every value, the default text
included, is parsed and validated by its option's one type. An argv that
starts with a command is parsed by that command's parser alone, with the
whole parser's usage and error text kept; the whole parser reads only -h,
a missing command and an unknown one. The report is written by _json_text,
one recursive pass whose text is that of json.dumps(body, indent=2).

The library computes in natural units, and each runner reports its values
as the library gives them: the modes at hbar = c = 1 with the box edge as
the unit of length, the oscillator at hbar = m = omega0 = 1, zeeman's levels
in units of mu0 B and sz's eigenvalue in units of hbar. A bound, a field
phase or a ramp level that overflows is refused by _finite.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import os
import sys
import time
import traceback
from collections import Counter
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import chain, combinations, repeat
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter
from pathlib import Path

from ._lazy import np
from .errors import ContradictionError, IncompleteBasisError, refuse
from .exchange import (
    ORDERINGS,
    antiphase_feasible,
    antisymmetrize,
    derive_antisymmetry,
    make_bipartite,
    solve_exchange_phase,
)
from .internal_rotation import apply_spin_z, dichotomy_solve, rotation_factor
from .modes import (
    ZpfRealization,
    analytic_mode_observables,
    ensemble_cost,
    make_mode,
    mode_count,
    mode_observables,
    modes_cost,
    quadrature_cost,
    realization_totals,
    sample_fields,
    sample_realization,
    sample_zeta_ensemble,
    wave_vector,
)
from .oscillator import build_oscillator_table, table_cost
from .phase_algebra import MINUS_ONE
from .spectral import (
    lz_expectation,
    polarized_momenta,
    trk_sum_rule,
    zeeman_levels,
)

__all__ = ["main", "entry"]


class ConfigError(ValueError):
    pass


# --- argument types -----------------------------------------------------------
# Flags and config-file values are validated alike, when they are parsed.


def _checked(what: str, parse, valid=lambda value: True):
    """An argparse type: parse(text), refused with `expected <what>` when
    parsing fails or the value is not valid."""

    def typed(text):
        try:
            value = parse(text)
        except (ValueError, ZeroDivisionError, argparse.ArgumentTypeError):
            value = None
        if value is None or not valid(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value

    return typed


def _at_least(k: int):
    return _checked(f"an integer of at least {k}", int, lambda value: value >= k)


def _comma_list(item):
    return lambda text: [item(part) for part in text.split(",")]


def _label(token: str) -> tuple:
    name, _, spin = token.partition(":")
    return name.strip(), Fraction(spin)


def _name_value(text: str) -> tuple:
    name, _, value = text.partition("=")
    return name.strip(), _tolerance_value(value)


# inf and nan would turn the checks into NaN verdicts instead of a usage error
_finite_float = _checked("a finite number", float, math.isfinite)
# one type for --tol and tol.<name> keys: a negative tolerance would fail
# every check it bounds, turning bad input into exit 1
_tolerance_value = _checked("a finite number of at least 0", float, lambda value: 0 <= value < math.inf)
_tolerance = _checked("NAME=VALUE with VALUE a finite number of at least 0", _name_value)
_mode_index = _checked("three comma-separated integers", _comma_list(int), lambda n: len(n) == 3)
_gamma = _checked("+1 or -1", int, lambda value: value in (1, -1))
_dims = _checked(
    "2, 3 or 2,3",
    _comma_list(int),
    lambda dims: set(dims) <= {2, 3} and len(set(dims)) == len(dims),
)
_dim = _checked("2 or 3", int, lambda value: value in (2, 3))
_ordering = _checked(
    f"{', '.join(ORDERINGS[:-1])} or {ORDERINGS[-1]}", str, ORDERINGS.__contains__
)
_fraction = _checked("an exact rational", Fraction)
_labels = _checked("comma-separated orbital:spin labels", _comma_list(_label))


# --- options and the experiment registry --------------------------------------


@dataclass(frozen=True)
class Option:
    """One setting a command reads: given as `flag` or as the config key
    `dest`, and parsed and validated by `type`, the default text included."""

    flag: str
    dest: str
    type: object
    default: str
    help: str


N_MAX = Option("--n-max", "n_max", _at_least(1), "1", "mode cutoff |n|_inf")
N_CUT = Option("--n-cut", "n_cut", _at_least(1), "5", "oscillator shell cutoff")
# every command takes a seed, so one script can pass it to all of them
SEED = Option("--seed", "seed", _at_least(0), "7", "base RNG seed")


@dataclass(frozen=True)
class Experiment:
    """One subcommand as its runner declares it."""

    run: object
    help: str
    options: tuple  # the Options its runner reads, then SEED
    tolerances: dict  # check tolerance -> default; each name belongs to one command
    csv: bool
    cost: object  # cfg -> the (what, unit, amount) lines errors.refuse reads

    def declared(self) -> str:
        items = self.tolerances.items()
        return ", ".join(f"{name}={value:g}" for name, value in items) or "none"


_EXPERIMENTS: dict = {}


def _experiment(name: str, help: str, *options, tolerances=None, csv=False, cost=lambda cfg: ()):
    """Register the decorated runner as subcommand `name`, with the options
    it reads, its tolerance defaults, CSV support and the errors.refuse cost
    of a run, arithmetic on the resolved config in the order its library
    calls refuse. The runner is returned unchanged and looks up library
    functions as module globals."""

    def register(run):
        _EXPERIMENTS[name] = Experiment(run, help, (*options, SEED), tolerances or {}, csv, cost)
        return run

    return register


@functools.cache
def _parsers() -> tuple:
    """The command-line parser derived from _EXPERIMENTS and the parser of
    each command by name, built once per process. An option left off the
    command line parses to None."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--report", help="also write the JSON report to this path")
    common.add_argument(
        "--tol",
        action="append",
        default=[],
        type=_tolerance,
        metavar="NAME=VALUE",
        help="override one tolerance the command declares (repeatable)",
    )

    parser = argparse.ArgumentParser(
        prog="zpfspin",
        description="verification experiments for mode algebra, spectral sums, and exchange symmetry",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, experiment in _EXPERIMENTS.items():
        # no abbreviations: `--n-m` must not reach a command's `--n-max`
        p = sub.add_parser(
            name,
            parents=[common],
            allow_abbrev=False,
            help=experiment.help,
            epilog=f"tolerances (--tol NAME=VALUE): {experiment.declared()}",
        )
        for option in experiment.options:
            text = f"{option.help} (default {option.default})"
            p.add_argument(option.flag, dest=option.dest, type=option.type, help=text)
        if experiment.csv:
            p.add_argument("--csv", help="write plottable series to this path")
    return parser, sub.choices


def _parser() -> argparse.ArgumentParser:
    """The whole command-line parser."""
    return _parsers()[0]


def _parse(argv):
    """parse_args of the whole parser, in one pass where it can: an argv
    that starts with a command is parsed by that command's parser alone,
    and what it leaves is refused by the whole parser's error, as
    parse_args refuses it."""
    parser, commands = _parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in commands:
        return parser.parse_args(argv)
    args, unknown = commands[argv[0]].parse_known_args(argv[1:])
    if unknown:
        parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    args.command = argv[0]
    return args


def _load_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key] = value
    return out


def _config_value(key: str, value: str, kind):
    try:
        return kind(value)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from exc


def _resolve(args, experiment: Experiment):
    """args with each option the command reads set to its flag value, else
    its config-file value, else its default, and with `tolerances` holding
    the tolerance overrides."""
    options = {option.dest: option for option in experiment.options}
    given, tolerances = {}, {}
    if args.config:
        for key, value in _load_config_file(args.config).items():
            if key.startswith("tol."):
                tolerances[key[4:]] = _config_value(key, value, _tolerance_value)
            elif key in options:
                given[key] = _config_value(key, value, options[key].type)
            else:
                raise ConfigError(
                    f"{args.command} reads no config key {key!r}; "
                    f"its keys: {', '.join(options)}, tol.<name>"
                )
    for dest, option in options.items():
        if getattr(args, dest) is None:
            setattr(args, dest, given.get(dest, option.type(option.default)))
    tolerances.update(args.tol)
    for name in tolerances:
        if name not in experiment.tolerances:
            raise ConfigError(
                f"{args.command} declares no tolerance {name!r}; "
                f"declared: {experiment.declared()}"
            )
    args.tolerances = tolerances
    return args


def _finite(what: str, name: str, value: float) -> float:
    """value, refused when it has overflowed to an infinity, which would
    reach a check or a CSV row as an infinite or NaN value. `what` names
    the run's inputs it came from."""
    if math.isinf(value):
        raise ValueError(f"refusing {what}: its {name} is {value!r}, outside the range of normal floats")
    return value


def _tol(cfg, name: str, scale: float = 1.0) -> float:
    """The bound of a check: the override of tolerance `name`, else the
    default its command declares, times `scale`, the size of what it
    bounds."""
    value = cfg.tolerances.get(name, _EXPERIMENTS[cfg.command].tolerances[name])
    return _finite(f"tolerance {name}={value:g}", "bound", value * scale)


def _json_default(value):
    """The json.dumps hook for what json cannot write itself: a Fraction as
    its text, a numpy scalar or array as its Python value."""
    if isinstance(value, Fraction):
        return str(value)
    if hasattr(value, "tolist"):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _json_text(value, indent: str = "\n") -> str:
    """The text of json.dumps(value, indent=2, default=_json_default),
    written in one recursive pass: given an indent, json.dumps runs its
    pure-Python generator encoder. Keys must be strings, as a report's are;
    `indent` is the line break and indentation of value's own level."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{encode_basestring_ascii(key)}: {_json_text(item, inner)}" for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [_json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    return _json_text(_json_default(value), indent)


def _close(name, expected, actual, tolerance) -> dict:
    ok = abs(float(actual) - float(expected)) <= tolerance
    return {"name": name, "expected": expected, "actual": actual, "tolerance": tolerance, "pass": ok}


def _worst(errors) -> float:
    """Largest of the errors, NaN if any of them is NaN (the builtin max
    drops a NaN that is not its first argument)."""
    return float(np.max(errors, initial=0.0))


def _exact(name, expected, actual) -> dict:
    ok = expected == actual
    return {"name": name, "expected": expected, "actual": actual, "tolerance": 0.0, "pass": ok}


# --- subcommand runners -------------------------------------------------------
# Registration order is the order `zpfspin --help` lists the commands in.


@_experiment(
    "mode-observables",
    "single-mode H, P, J by quadrature",
    Option("--n", "n", _mode_index, "0,0,1", "integer triple, e.g. 0,0,1"),
    Option("--gamma", "gamma", _gamma, "+1", "polarization, +1 or -1"),
    Option("--grid", "grid", _at_least(1), "32", "per-axis quadrature resolution"),
    tolerances={"observables": 1e-9, "phase_independence": 1e-12},
    cost=lambda cfg: quadrature_cost(cfg.grid),
)
def _run_mode_observables(cfg):
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 11]))
    draws = [tuple(rng.uniform(0.0, 2.0 * np.pi, 2)) for _ in range(2)]
    pair = [make_mode(cfg.n, cfg.gamma, zeta, phi) for zeta, phi in draws]
    analytic = analytic_mode_observables(pair[0])
    ref = {q: value[0] for q, value in asdict(analytic).items()}
    size = {q: float(np.linalg.norm(value)) for q, value in ref.items()}
    # the bounds come first: one that overflows refuses the run before the quadrature
    bounds = {q: _tol(cfg, "observables", size[q]) for q in ref}
    first, second = (asdict(mode_observables(mode, cfg.grid)) for mode in pair)
    errors = {q: float(np.max(np.abs(first[q] - ref[q]))) for q in "PJ"}
    # relative, as the other three checks are
    swap_err = _worst([np.max(np.abs(first[q] - second[q])) / size[q] for q in ref])
    checks = [
        _close("energy", ref["H"], first["H"], bounds["H"]),
        _close("momentum_error", 0.0, errors["P"], bounds["P"]),
        _close("angular_momentum_error", 0.0, errors["J"], bounds["J"]),
        _close("phase_independence", 0.0, swap_err, _tol(cfg, "phase_independence")),
    ]
    details = {"n": list(cfg.n), "gamma": cfg.gamma, "analytic": ref, "quadrature": first}
    return checks, details, None


def _relative(error, field) -> float:
    """Largest |error| over the largest |field|, a ratio that one tolerance
    bounds for every mode."""
    return float(np.max(np.abs(error)) / np.max(np.abs(field)))


def _field_sample_cost(cfg) -> list:
    n_modes = mode_count(cfg.n_max)
    what = f"the fields of {n_modes} modes at {cfg.points} points"
    # one byte estimate for the points and the modes together: a run holds
    # 445 bytes a point, the points, the fields of the whole realization, of
    # two single modes and of their sum, and the differences the checks take
    # (the largest peak over points that tracemalloc measures at n_max 1 to 4
    # and 1e5 or 2e5 points; larger runs need less per point, as the
    # fixed-size blocks of sample_fields spread out)
    [(_, _, mode_bytes)] = modes_cost(cfg.n_max)
    # the checks evaluate 1 + 1 + 2 modes a point, the --csv rows all of them
    evaluations = cfg.points * (4 + (n_modes if cfg.csv else 0))
    return [(what, "bytes", 445 * cfg.points + mode_bytes), (what, "mode evaluations", evaluations)]


@_experiment(
    "field-sample",
    "field values along the box diagonal",
    Option("--points", "points", _at_least(1), "64", "points along the diagonal"),
    Option("--time", "time", _finite_float, "0.0", "evaluation time"),
    N_MAX,
    tolerances={"transversality": 1e-12, "field_circular": 1e-12, "field_linearity": 1e-12},
    csv=True,
    cost=_field_sample_cost,
)
def _run_field_sample(cfg):
    # the largest phase omega t of the fields must stay finite
    omega_max = float(np.linalg.norm(wave_vector([cfg.n_max] * 3)))
    _finite("the fields of modes in a box of edge 1", "phase", omega_max * cfg.time)
    real = sample_realization(cfg.n_max, cfg.seed)
    s_vals = np.linspace(0.0, 1.0, cfg.points, endpoint=False)
    points = s_vals[:, None] * np.ones(3)

    def fields(modes):
        return sample_fields(ZpfRealization(modes), points, cfg.time)

    A1, E1, B1 = fields(real.modes[:1])
    k = wave_vector(real.modes.n[0])
    khat = k / np.linalg.norm(k)
    transversal = _worst([_relative(A1 @ khat, A1), _relative(E1 @ khat, E1)])
    circular = _relative(B1 - real.modes.gamma[0] * np.linalg.norm(k) * A1, B1)
    A2, E2, B2 = fields(real.modes[1:2])
    Ab, Eb, Bb = fields(real.modes[:2])
    linear = _worst([
        _relative(Ab - (A1 + A2), Ab),
        _relative(Eb - (E1 + E2), Eb),
        _relative(Bb - (B1 + B2), Bb),
    ])
    checks = [
        _close("transversality", 0.0, transversal, _tol(cfg, "transversality")),
        _close("b_tracks_a", 0.0, circular, _tol(cfg, "field_circular")),
        _close("linearity", 0.0, linear, _tol(cfg, "field_linearity")),
    ]
    details = {"modes": len(real.modes), "points": cfg.points, "time": cfg.time}
    if not cfg.csv:
        return checks, details, None
    # the whole realization's fields are built only for --csv
    columns = [points, *fields(real.modes)]
    header = ["s", "x", "y", "z", "Ax", "Ay", "Az", "Ex", "Ey", "Ez", "Bx", "By", "Bz"]
    rows = ([float(s), *row] for s, row in zip(s_vals, np.hstack(columns).tolist()))
    return checks, details, (header, rows)


@_experiment(
    "totals", "whole-realization momentum and spin totals", N_MAX,
    cost=lambda cfg: modes_cost(cfg.n_max),
)
def _run_totals(cfg):
    real = sample_realization(cfg.n_max, cfg.seed)
    totals = realization_totals(real)
    expected_count = 2 * ((2 * cfg.n_max + 1) ** 3 - 1)

    # rows 0 and 1 are one n with gamma = +1 and -1 (mode_keys order)
    pair_only = realization_totals(ZpfRealization(real.modes[:2]))
    checks = [
        _exact("mode_count", expected_count, len(real.modes)),
        _exact("total_momentum_zero", 0.0, float(np.max(np.abs(totals.P)))),
        _exact("total_spin_zero", 0.0, float(np.max(np.abs(totals.J)))),
        _exact("gamma_pair_spin_cancels", 0.0, float(np.max(np.abs(pair_only.J)))),
        _exact("gamma_pair_keeps_momentum", True, bool(np.max(np.abs(pair_only.P)) > 0)),
    ]
    return checks, {"total_energy": totals.H, "modes": len(real.modes)}, None


def _phases_cost(cfg) -> list:
    what = f"{cfg.pairs} mode pairs"
    # a pair holds about 1.4 KB at peak (tracemalloc), its 114-byte report
    # entry included, reads at most two columns and is charged 1000 rows or more
    columns = min(2 * cfg.pairs, mode_count(cfg.n_max))
    rows = cfg.pairs * max(cfg.ensemble, 1000)
    return [
        (what, "bytes", 1400 * cfg.pairs),
        *ensemble_cost(cfg.n_max, cfg.ensemble, columns),
        # one pair mean's temporaries, charged together although at most 32
        # bytes a realization are held at once (tracemalloc): the difference
        # of two columns (8 bytes), its product with 1j and its exponential
        # (16 each)
        (f"a pair mean over {cfg.ensemble} realizations", "bytes", 40 * cfg.ensemble),
        (f"{what} over {cfg.ensemble} realizations", "pair rows", rows),
    ]


@_experiment(
    "phases",
    "ensemble independence of mode phases",
    N_MAX,
    Option("--ensemble", "ensemble", _at_least(1), "1000", "realization count"),
    Option("--pairs", "pairs", _at_least(1), "10", "mode pairs to test"),
    cost=_phases_cost,
)
def _run_phases(cfg):
    n_modes = mode_count(cfg.n_max)
    # the pairs come first, so that the draw keeps only their columns
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 23]))
    pairs = np.array([rng.choice(n_modes, size=2, replace=False) for _ in range(cfg.pairs)])
    columns, rows = np.unique(pairs, return_inverse=True)
    _, zetas = sample_zeta_ensemble(cfg.n_max, cfg.ensemble, cfg.seed, columns)
    zetas = zetas.T  # one contiguous row of realizations per column
    pair_stats = []
    for (a, b), (i, j) in zip(pairs.tolist(), rows.reshape(-1, 2)):
        mean = np.mean(np.exp(1j * (zetas[i] - zetas[j])))
        pair_stats.append({"modes": [a, b], "abs_mean": float(abs(mean))})
    worst = _worst([pair["abs_mean"] for pair in pair_stats])
    bound = 4.0 / math.sqrt(cfg.ensemble)
    checks = [_close("circular_mean_bound", 0.0, worst, bound)]
    details = {"ensemble": cfg.ensemble, "mode_count": n_modes, "pairs": pair_stats}
    return checks, details, None


@_experiment(
    "sum-rule",
    "oscillator-strength sum rule",
    Option("--dims", "dims", _dims, "2,3", "dimensions to run, e.g. 2 or 2,3"),
    N_CUT,
    tolerances={"sum_rule": 1e-12},
    cost=lambda cfg: [line for dims in cfg.dims for line in table_cost(dims, cfg.n_cut)],
)
def _run_sum_rule(cfg):
    checks = []
    per_dims = {}
    for dims in cfg.dims:
        table = build_oscillator_table(dims, cfg.n_cut)
        shells = table.states.sum(axis=1)
        # each sum is 1 in units of hbar
        values = trk_sum_rule(table, np.flatnonzero(shells < cfg.n_cut))
        errors = np.abs(values - 1.0)
        try:
            trk_sum_rule(table, np.flatnonzero(shells == cfg.n_cut)[:1])
            detected = False
        except IncompleteBasisError:
            detected = True
        checks.append(
            _close(f"sum_rule_rel_err[dims={dims}]", 0.0, _worst(errors), _tol(cfg, "sum_rule"))
        )
        checks.append(_exact(f"incomplete_cutoff_detected[dims={dims}]", True, detected))
        per_dims[str(dims)] = {"states_checked": len(errors), "target": 1.0}
    return checks, {"n_cut": cfg.n_cut, "dims": per_dims}, None


@_experiment(
    "angular-momentum",
    "two routes to the orbital L_z",
    Option("--dims", "dims", _dim, "2", "dimension, 2 or 3"),
    N_CUT,
    tolerances={"routes_agree": 1e-12, "operator_eigenvalue": 1e-12},
    cost=lambda cfg: table_cost(cfg.dims, cfg.n_cut),
)
def _run_angular_momentum(cfg):
    table = build_oscillator_table(cfg.dims, cfg.n_cut)
    rows = np.flatnonzero(table.states.sum(axis=1) < cfg.n_cut)
    # angular momenta in units of hbar, and so each error and tolerance
    m_plus, m_minus = polarized_momenta(table, rows)
    pol = m_plus + m_minus
    routes = np.abs(pol - lz_expectation(table, rows))
    eigen = np.abs(pol - (table.states[rows, 0] - table.states[rows, 1]))
    split_gap = np.abs((m_plus - m_minus) - 1.0)
    checks = [
        _close("routes_agree", 0.0, _worst(routes), _tol(cfg, "routes_agree")),
        _close("operator_eigenvalue", 0.0, _worst(eigen), _tol(cfg, "operator_eigenvalue")),
        _close("channel_gap_is_hbar", 0.0, _worst(split_gap), _tol(cfg, "routes_agree")),
    ]
    return checks, {"dims": cfg.dims, "n_cut": cfg.n_cut, "states_checked": len(rows)}, None


@_experiment(
    "zeeman",
    "level shifts and the doubled spin weight",
    Option("--b-max", "b_max", _finite_float, "2.0", "last field of the CSV ramp"),
    Option("--b-points", "b_points", _at_least(2), "9", "fields on the CSV ramp"),
    tolerances={"zeeman_gap": 1e-12},
    csv=True,
    cost=lambda cfg: [("a CSV ramp", "field values", cfg.b_points)] if cfg.csv else [],
)
def _run_zeeman(cfg):
    # every level in units of mu0 B: the shift k = m_l + 2 m_s, and the gap 2
    tolerance = _tol(cfg, "zeeman_gap", 2.0)
    closed_form = [(m_l, m_s, float(k)) for m_l, m_s, k in zeeman_levels()]
    header = ["B", "m_l", "m_s", "energy"]
    csv_data = None
    if cfg.csv:
        # each CSV energy is k B in units of mu0; the levels at b_max are the
        # ramp's largest, and the first of them past the floats refuses the run
        basis = zeeman_levels()
        for _, _, k in basis:
            _finite(f"a ramp to {cfg.b_max:g}", "level", k * cfg.b_max)
        ramp = np.linspace(0.0, cfg.b_max, cfg.b_points)
        energies = np.multiply.outer(ramp, [float(k) for _, _, k in basis])
        rows = (
            [float(b_val), m_l, float(m_s), float(e)]
            for b_val, row in zip(ramp, energies)
            for (m_l, m_s, _), e in zip(basis, row)
        )
        csv_data = (header, rows)
    # shells 0 and 1 of a 2-d table hold m_l = 0, -1 and +1; each polarized
    # channel M (in units of hbar) carries the moment mu = -(2 mu0/hbar) M,
    # at level -mu B = 2 M mu0 B
    table = build_oscillator_table(2, 2)
    rows = np.flatnonzero(table.states.sum(axis=1) < 2)
    levels = 2.0 * np.array(polarized_momenta(table, rows))
    m_ls = (table.states[rows, 0] - table.states[rows, 1]).tolist()
    energy = {(m_l, m_s): e for m_l, m_s, e in closed_form}
    half = Fraction(1, 2)
    expected = [[energy[m_l, m_s] for m_l in m_ls] for m_s in (half, -half)]
    checks = [
        _close("levels_from_channels", 0.0, _worst(np.abs(levels - expected)), tolerance),
        _close("spin_gap_doubled", 0.0, _worst(np.abs(levels[0] - levels[1] - 2.0)), tolerance),
    ]
    details = {"levels": [[m_l, str(m_s), e] for m_l, m_s, e in closed_form]}
    return checks, details, csv_data


@_experiment("dichotomy", "two-value constraint on the winding")
def _run_dichotomy(cfg):
    half = Fraction(1, 2)
    values = [half, -half]
    canonical = dichotomy_solve(values)
    grid = [Fraction(k, 6) for k in range(-12, 13)]
    triples = list(combinations(grid, 3))
    triples_feasible = sum(dichotomy_solve(triple).feasible for triple in triples)
    repeated = dichotomy_solve([half, half])
    checks = [
        _exact("canonical_pair_feasible", True, canonical.feasible),
        _exact("canonical_sign_opposed", True, canonical.sign_opposed),
        _exact("no_feasible_triple", 0, triples_feasible),
        _exact("repeated_value_infeasible", False, repeated.feasible),
    ]
    # the benchmark's report oracle reads details.input.feasible
    details = {"input": {"values": values, **asdict(canonical)}, "triples_searched": len(triples)}
    return checks, details, None


@_experiment(
    "sz",
    "internal rotation generator eigenvalues",
    Option("--winding", "winding", _fraction, "1/2", "winding, exact rational"),
    # the stencil's error hbar |w| (w h)^4 / 30, h = 4 pi / points, is 1.01e-8
    # hbar at 225 points and 6.0e-9 hbar at 256, against sz_agreement's 1e-8
    Option("--points", "points", _at_least(256), "1024", "numeric differentiation grid"),
    tolerances={"sz_agreement": 1e-8},
)
def _run_sz(cfg):
    winding = cfg.winding
    # in units of hbar; the exact eigenvalue is read off the generator's
    # half-turn phase e^{-i w pi}
    numeric = apply_spin_z(winding, grid=cfg.points)
    symbolic = -float(rotation_factor(winding, 1).pi_part)
    full_turn = rotation_factor(winding, 2)
    double_turn = rotation_factor(winding, 4)
    checks = [
        _exact("symbolic_eigenvalue", float(winding), symbolic),
        _close("numeric_matches_symbolic", symbolic, numeric, _tol(cfg, "sz_agreement")),
        _exact("full_turn_is_minus_one", True, full_turn.is_minus_one),
        _exact("double_turn_is_identity", True, double_turn.is_one),
    ]
    details = {
        "winding": str(winding),
        "grid": cfg.points,
        "full_turn_phase": full_turn.format(),
    }
    return checks, details, None


@_experiment(
    "exchange-derive",
    "mechanical exchange-phase derivation",
    Option("--spin-a", "spin_a", _fraction, "1/2", "spin of particle a, exact rational"),
    Option("--spin-b", "spin_b", _fraction, "1/2", "spin of particle b, exact rational"),
    Option("--ordering", "ordering", _ordering, "phi2_greater", "which internal angle is larger"),
)
def _run_exchange_derive(cfg):
    spin_a, spin_b = cfg.spin_a, cfg.spin_b
    try:
        report = derive_antisymmetry(
            spin_a=spin_a, spin_b=spin_b, ordering=cfg.ordering
        )
    except ContradictionError as exc:
        checks = [_exact("derivation_consistent", True, False)]
        return checks, {"error": str(exc)}, None

    fermionic = (2 * spin_a) % 2 == 1 and (2 * spin_b) % 2 == 1
    expected_phase = "1*pi" if fermionic else "0"
    # only the integer-spin probe's phase is read, so it is solved, not derived
    probe = solve_exchange_phase(make_bipartite("alpha", 1, "beta", 1), cfg.ordering).value
    checks = [
        _exact("derivation_consistent", True, True),
        _exact("exchange_phase", expected_phase, report.solution.value.format()),
        _exact("antisymmetric", fermionic, report.antisymmetric),
        _exact("swap_factor_matches_exchange_phase", expected_phase, report.swap_factor.format()),
        _exact("matches_antisymmetrizer", fermionic, report.matches_antisymmetrizer),
        _exact("integer_spin_probe_symmetric", True, probe.is_one),
    ]
    details = {"derivation": report.to_dict(), "probe_phase": probe.format()}
    return checks, details, None


@_experiment(
    "antiphase",
    "pairwise antiphase feasibility",
    Option("--n", "n", _at_least(1), "3", "particle count"),
)
def _run_antiphase(cfg):
    result = antiphase_feasible(cfg.n)
    checks = [_exact("feasible_iff_pair_or_less", cfg.n <= 2, result.feasible)]
    if result.cross_check is not None:
        checks.append(_exact("grid_cross_check", True, result.cross_check))
    details = {
        "n": cfg.n,
        "witness": None
        if result.witness is None
        else [f"{v}*pi" for v in result.witness],
    }
    return checks, details, None


def _per_object(func, objects) -> list:
    """[func(x) for x in objects], calling func once per distinct object.

    Exact labels and coefficients hash slowly (Fraction.__hash__), and the
    terms of one expansion share a handful of such objects between them, so
    objects are told apart by identity, in maps that run in C.
    """
    objects = list(objects)
    ids = list(map(id, objects))
    memo = {key: func(obj) for key, obj in dict(zip(ids, objects)).items()}
    return list(map(memo.__getitem__, ids))


def _transpositions_flip_sign(labels, state) -> bool:
    """Whether swapping any two of the distinct labels negates the state.

    Swapping labels i and j turns each term of the built expansion into the
    term of the swapped expansion with the same slot assignment, so the
    check relabels the terms already built rather than building more. Kets
    become byte strings of label indices, so a relabelling is one
    bytes.translate, and coefficients become small integer class ids, so no
    exact number is hashed per swap.

    Only the n - 1 adjacent swaps (i, i+1) are tried, and the answer is the
    same as over all n(n-1)/2 pairs, for any state: relabelling is an action
    of S_n on the maps ket -> coefficient class, negation commutes with it
    and is an involution, so if every adjacent swap negates the state, a
    product of k of them multiplies it by (-1)^k; and (i j) is the product
    of 2(j - i) - 1 adjacent swaps, an odd number.
    """
    n = len(labels)
    index = {label: i for i, label in enumerate(labels)}
    kets = chain.from_iterable(map(itemgetter(1), state.terms))
    slots = bytes(_per_object(index.__getitem__, kets))
    keys = [slots[start : start + n] for start in range(0, len(slots), n)]
    classes: dict = {}

    def class_of(c):
        return classes.setdefault(c, len(classes))

    coefficients = list(map(itemgetter(0), state.terms))
    ids = _per_object(class_of, coefficients)
    # an antisymmetrized state holds two coefficient objects: each is
    # negated once, not once a term
    flipped = _per_object(lambda c: class_of(c.mul_phase(MINUS_ONE)), coefficients)
    want = dict(zip(keys, flipped))
    for i in range(n - 1):
        table = bytes.maketrans(bytes((i, i + 1)), bytes((i + 1, i)))
        if dict(zip(map(bytes.translate, keys, repeat(table)), ids)) != want:
            return False
    return True


@_experiment(
    "slater",
    "n-particle antisymmetrizer checks",
    Option("--labels", "labels", _labels, "a:1/2,b:-1/2", "orbital:spin list"),
)
def _run_slater(cfg):
    labels = cfg.labels
    state = antisymmetrize(labels)
    n = len(labels)
    distinct = len(set(labels)) == n
    expected_terms = math.factorial(n) if distinct else 0
    flips_ok = _transpositions_flip_sign(labels, state) if distinct else True
    # the terms share a few magnitude objects: each is squared once, times
    # the number of terms that hold it
    magnitudes = list(map(attrgetter("magnitude"), map(itemgetter(0), state.terms)))
    shared = dict(zip(map(id, magnitudes), magnitudes))
    counts = Counter(map(id, magnitudes))
    norm_sq = sum(counts[key] * m.coeff**2 * m.radicand for key, m in shared.items())
    repeated = antisymmetrize([labels[0], labels[0]])
    checks = [
        _exact("term_count", expected_terms, len(state.terms)),
        _exact("transpositions_flip_sign", True, flips_ok),
        _exact("norm_squared", "1" if distinct else "0", str(norm_sq)),
        _exact("repeated_label_vanishes", True, repeated.is_zero),
    ]
    details = {"n": n, "distinct": distinct}
    return checks, details, None


def _write_outputs(args, text: str, csv_data) -> None:
    """Write the --csv and then the --report file; an unwritable path is a
    usage error, and leaves neither file of this run behind. Only the
    commands that produce a series have --csv."""
    csv_path, written = getattr(args, "csv", None), None
    try:
        if csv_path:
            header, rows = csv_data
            with open(csv_path, "w", newline="") as handle:
                written = Path(csv_path)
                writer = csv.writer(handle, lineterminator="\n")
                writer.writerow(header)
                writer.writerows(rows)
        if args.report:
            Path(args.report).write_text(text + "\n")
    except OSError as exc:
        if written:
            written.unlink(missing_ok=True)
        raise ConfigError(f"cannot write output: {exc}") from exc


def main(argv=None) -> int:
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    experiment = _EXPERIMENTS[args.command]
    start = time.perf_counter()
    try:
        cfg = _resolve(args, experiment)
        refuse(experiment.cost(cfg))
        checks, details, csv_data = experiment.run(cfg)
        config = {option.dest: getattr(cfg, option.dest) for option in experiment.options}
        config["tolerances"] = dict(sorted(cfg.tolerances.items()))
        body = {
            "schema": 1,
            "command": args.command,
            "config": config,
            "checks": checks,
            "details": details or {},
            "wall_time_s": time.perf_counter() - start,
        }
        text = _json_text(body)
        # the files come first, so a failed write leaves stdout empty
        _write_outputs(args, text, csv_data)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # exit 1 is kept for a failed check: anything unforeseen is exit 3
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 3

    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # quiet the flush at exit, as the signal module's SIGPIPE note does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0 if all(check["pass"] for check in checks) else 1


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
