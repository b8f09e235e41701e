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
runner, which lists the Options the runner reads (shared ones such as BOX or
HBAR are module constants; --seed is on every command). The parser, its
--help, the config keys and the report's config (each option in declaration
order, then the tolerance overrides) are derived from that list, so a flag
or key the command does not read exits 2. Every value, the default text
included, is parsed and validated by its option's one type.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, repeat
from pathlib import Path

import numpy as np

from .constants import PhysicalConstants
from .errors import ContradictionError, IncompleteBasisError, SizeLimitError, check_bytes
from .exchange import (
    antiphase_feasible,
    antisymmetrize,
    derive_antisymmetry,
    negate,
)
from .internal_rotation import SpinState, apply_spin_z, dichotomy_solve, rotation_factor
from .modes import (
    ZpfRealization,
    analytic_mode_observables,
    check_ensemble_size,
    check_field_size,
    check_mode_scales,
    check_quadrature_size,
    make_mode,
    mode_observables,
    realization_totals,
    sample_fields,
    sample_realization,
    sample_zeta_ensemble,
    wave_vector,
)
from .oscillator import build_oscillator_table, check_table_size
from .spectral import (
    lz_expectation,
    magnetic_moment_identity,
    polarized_momenta,
    spin_split,
    total_momentum,
    trk_sum_rule,
    zeeman_energy,
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
_positive = _checked("a positive finite number", float, lambda value: 0 < value < math.inf)
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
_orderings = ("phi2_greater", "phi1_greater", "tie")
_ordering = _checked("phi2_greater, phi1_greater or tie", str, _orderings.__contains__)
_fraction = _checked("an exact rational", Fraction)
_fractions = _checked("comma-separated exact rationals", _comma_list(Fraction))
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


BOX = Option("--box", "L", _positive, "1.0", "box edge length")
N_MAX = Option("--n-max", "n_max", _at_least(1), "1", "mode cutoff |n|_inf")
N_CUT = Option("--n-cut", "n_cut", _at_least(1), "5", "oscillator shell cutoff")
OMEGA0 = Option("--omega0", "omega0", _positive, "1.0", "oscillator frequency")
HBAR = Option("--hbar", "hbar", _positive, "1.0", "reduced Planck constant")
C = Option("--c", "c", _positive, "1.0", "speed of light")
M = Option("--m", "m", _positive, "1.0", "oscillator mass")
MU0 = Option("--mu0", "mu0", _positive, "1.0", "magneton setting the Zeeman scale")
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

    def declared(self) -> str:
        items = self.tolerances.items()
        return ", ".join(f"{name}={value:g}" for name, value in items) or "none"


_EXPERIMENTS: dict = {}


def _experiment(name: str, help: str, *options, tolerances=None, csv=False):
    """Register the decorated runner as subcommand `name`, with the options
    it reads, its tolerance defaults and CSV support. The runner is returned
    unchanged and looks up library functions as module globals."""

    def register(run):
        _EXPERIMENTS[name] = Experiment(run, help, (*options, SEED), tolerances or {}, csv)
        return run

    return register


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser derived from _EXPERIMENTS, built once per
    process. An option left off the command line parses to None."""
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
        # no abbreviations: `--m` must not reach a command's `--mu0`
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
    return parser


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


def _tol(cfg, name: str) -> float:
    """The override of tolerance `name`, else the default its command declares."""
    return cfg.tolerances.get(name, _EXPERIMENTS[cfg.command].tolerances[name])


def _jsonable(value):
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


@dataclass
class Check:
    name: str
    expected: object
    actual: object
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "expected": _jsonable(self.expected),
            "actual": _jsonable(self.actual),
            "tolerance": _jsonable(self.tolerance),
            "pass": bool(self.passed),
        }


def _close(name, expected, actual, tolerance) -> Check:
    ok = abs(float(actual) - float(expected)) <= float(tolerance)
    return Check(name, expected, actual, float(tolerance), ok)


def _exact(name, expected, actual) -> Check:
    return Check(name, expected, actual, 0.0, expected == actual)


# --- subcommand runners -------------------------------------------------------
# Registration order is the order `zpfspin --help` lists the commands in.


@_experiment(
    "mode-observables",
    "single-mode H, P, J by quadrature",
    Option("--n", "n", _mode_index, "0,0,1", "integer triple, e.g. 0,0,1"),
    Option("--gamma", "gamma", _gamma, "+1", "polarization, +1 or -1"),
    Option("--grid", "grid", int, "32", "per-axis quadrature resolution"),
    BOX, HBAR, C,
    tolerances={"observables": 1e-9, "phase_independence": 1e-12},
)
def _run_mode_observables(cfg):
    check_quadrature_size(cfg.grid)
    n, gamma = cfg.n, cfg.gamma
    consts = PhysicalConstants(hbar=cfg.hbar, c=cfg.c)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 11]))
    draws = [tuple(rng.uniform(0.0, 2.0 * np.pi, 2)) for _ in range(2)]
    observed = []
    for zeta, phi in draws:
        mode = make_mode(n, gamma, zeta, phi, cfg.L)
        observed.append(mode_observables(mode, cfg.L, cfg.grid, consts))
    ref = analytic_mode_observables(
        make_mode(n, gamma, *draws[0], cfg.L), cfg.L, consts
    )
    rel = _tol(cfg, "observables")
    first = observed[0]
    p_err = float(np.max(np.abs(first.P - ref.P)))
    j_err = float(np.max(np.abs(first.J - ref.J)))
    swap_err = max(
        abs(observed[0].H - observed[1].H),
        float(np.max(np.abs(observed[0].P - observed[1].P))),
        float(np.max(np.abs(observed[0].J - observed[1].J))),
    )
    checks = [
        _close("energy", ref.H, first.H, rel * abs(ref.H)),
        _close("momentum_error", 0.0, p_err, rel * float(np.linalg.norm(ref.P))),
        _close("angular_momentum_error", 0.0, j_err, rel * float(np.linalg.norm(ref.J))),
        _close("phase_independence", 0.0, swap_err, _tol(cfg, "phase_independence")),
    ]
    details = {
        "n": list(n),
        "gamma": gamma,
        "analytic": {"H": ref.H, "P": ref.P, "J": ref.J},
        "quadrature": {"H": first.H, "P": first.P, "J": first.J},
    }
    return checks, details, None


def _relative(error, field) -> float:
    """Largest |error| over the largest |field|: the fields scale as
    sqrt(hbar omega / V), so a tolerance for every box bounds this ratio."""
    return float(np.max(np.abs(error)) / np.max(np.abs(field)))


@_experiment(
    "field-sample",
    "field values along the box diagonal",
    Option("--points", "points", _at_least(1), "64", "points along the diagonal"),
    Option("--time", "time", _finite_float, "0.0", "evaluation time"),
    BOX, N_MAX, HBAR, C,
    tolerances={"transversality": 1e-12, "field_circular": 1e-12, "field_linearity": 1e-12},
    csv=True,
)
def _run_field_sample(cfg):
    check_field_size(cfg.points)
    consts = PhysicalConstants(hbar=cfg.hbar, c=cfg.c)
    check_mode_scales(cfg.L, cfg.n_max, consts)
    real = sample_realization(cfg.L, cfg.n_max, cfg.seed)
    s_vals = np.linspace(0.0, 1.0, cfg.points, endpoint=False)
    points = s_vals[:, None] * np.array([cfg.L, cfg.L, cfg.L])
    A, E, B = sample_fields(real, points, cfg.time, consts)

    m0, m1 = real.modes[0], real.modes[1]
    single = ZpfRealization(cfg.L, (m0,))
    A1, E1, B1 = sample_fields(single, points, cfg.time, consts)
    k = wave_vector(m0.n, cfg.L)
    khat = k / np.linalg.norm(k)
    transversal = max(_relative(A1 @ khat, A1), _relative(E1 @ khat, E1))
    circular = _relative(B1 - m0.gamma * np.linalg.norm(k) * A1, B1)
    both = ZpfRealization(cfg.L, (m0, m1))
    A2, E2, B2 = sample_fields(ZpfRealization(cfg.L, (m1,)), points, cfg.time, consts)
    Ab, Eb, Bb = sample_fields(both, points, cfg.time, consts)
    linear = max(
        _relative(Ab - (A1 + A2), Ab),
        _relative(Eb - (E1 + E2), Eb),
        _relative(Bb - (B1 + B2), Bb),
    )
    checks = [
        _close("transversality", 0.0, transversal, _tol(cfg, "transversality")),
        _close("b_tracks_a", 0.0, circular, _tol(cfg, "field_circular")),
        _close("linearity", 0.0, linear, _tol(cfg, "field_linearity")),
    ]
    header = ["s", "x", "y", "z", "Ax", "Ay", "Az", "Ex", "Ey", "Ez", "Bx", "By", "Bz"]
    # built row by row only when --csv consumes them
    rows = (
        [float(s), *points[i].tolist(), *A[i].tolist(), *E[i].tolist(), *B[i].tolist()]
        for i, s in enumerate(s_vals)
    )
    details = {"modes": len(real.modes), "points": cfg.points, "time": cfg.time}
    return checks, details, (header, rows)


@_experiment("totals", "whole-realization momentum and spin totals", BOX, N_MAX, HBAR, C)
def _run_totals(cfg):
    consts = PhysicalConstants(hbar=cfg.hbar, c=cfg.c)
    check_mode_scales(cfg.L, cfg.n_max, consts)
    real = sample_realization(cfg.L, cfg.n_max, cfg.seed)
    totals = realization_totals(real, consts)
    expected_count = 2 * ((2 * cfg.n_max + 1) ** 3 - 1)

    base = real.modes[0]
    partner = make_mode(base.n, -base.gamma, 0.5, 1.5, cfg.L)
    pair_only = realization_totals(ZpfRealization(cfg.L, (base, partner)), consts)
    checks = [
        _exact("mode_count", expected_count, len(real.modes)),
        _exact("total_momentum_zero", 0.0, float(np.max(np.abs(totals.P)))),
        _exact("total_spin_zero", 0.0, float(np.max(np.abs(totals.J)))),
        _exact("gamma_pair_spin_cancels", 0.0, float(np.max(np.abs(pair_only.J)))),
        _exact("gamma_pair_keeps_momentum", True, bool(np.max(np.abs(pair_only.P)) > 0)),
    ]
    details = {"total_energy": totals.H, "modes": len(real.modes)}
    return checks, details, None


# Each pair averages over every realization, about 35 ns a pair and row
# (--ensemble 20000 and 200000, 2-vCPU x86-64), so this budget bounds the
# pair means to a few seconds.
_PAIR_ROWS_LIMIT = 10**8


@_experiment(
    "phases",
    "ensemble independence of mode phases",
    N_MAX,
    Option("--ensemble", "ensemble", _at_least(1), "1000", "realization count"),
    Option("--pairs", "pairs", _at_least(1), "10", "mode pairs to test"),
)
def _run_phases(cfg):
    # one pair holds about 1.4 KB at peak (tracemalloc), its report entry
    # (114 bytes of JSON) included
    check_bytes(f"{cfg.pairs} mode pairs", 1400 * cfg.pairs)
    check_ensemble_size(cfg.n_max, cfg.ensemble)
    if cfg.pairs * cfg.ensemble > _PAIR_ROWS_LIMIT:
        raise SizeLimitError(
            f"refusing {cfg.pairs} mode pairs over {cfg.ensemble} realizations: "
            f"{cfg.pairs * cfg.ensemble} pair rows, over the limit of {_PAIR_ROWS_LIMIT}"
        )
    _, zetas = sample_zeta_ensemble(cfg.n_max, cfg.ensemble, cfg.seed)
    count, n_modes = zetas.shape
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 23]))
    worst = 0.0
    pair_stats = []
    for _ in range(cfg.pairs):
        a, b = (int(v) for v in rng.choice(n_modes, size=2, replace=False))
        mean = np.mean(np.exp(1j * (zetas[:, a] - zetas[:, b])))
        value = float(abs(mean))
        worst = max(worst, value)
        pair_stats.append({"modes": [a, b], "abs_mean": value})
    bound = 4.0 / math.sqrt(count)
    checks = [_close("circular_mean_bound", 0.0, worst, bound)]
    details = {"ensemble": count, "mode_count": n_modes, "pairs": pair_stats}
    return checks, details, None


def _worst(errors) -> float:
    """Largest of the per-state errors, NaN if any of them is NaN (the
    builtin max drops a NaN that is not its first argument)."""
    return float(np.max(errors, initial=0.0))


@_experiment(
    "sum-rule",
    "oscillator-strength sum rule",
    Option("--dims", "dims", _dims, "2,3", "dimensions to run, e.g. 2 or 2,3"),
    N_CUT, OMEGA0, HBAR, M,
    tolerances={"sum_rule": 1e-12},
)
def _run_sum_rule(cfg):
    consts = PhysicalConstants(hbar=cfg.hbar, m=cfg.m)
    for dims in cfg.dims:
        check_table_size(dims, cfg.n_cut)
    checks = []
    per_dims = {}
    for dims in cfg.dims:
        table = build_oscillator_table(dims, cfg.omega0, cfg.n_cut, consts)
        shells = table.states.sum(axis=1)
        values = trk_sum_rule(table, np.flatnonzero(shells < cfg.n_cut))
        errors = np.abs(values - consts.hbar) / consts.hbar
        try:
            trk_sum_rule(table, np.flatnonzero(shells == cfg.n_cut)[:1])
            detected = False
        except IncompleteBasisError:
            detected = True
        checks.append(
            _close(f"sum_rule_rel_err[dims={dims}]", 0.0, _worst(errors), _tol(cfg, "sum_rule"))
        )
        checks.append(_exact(f"incomplete_cutoff_detected[dims={dims}]", True, detected))
        per_dims[str(dims)] = {"states_checked": len(errors), "target": consts.hbar}
    return checks, {"n_cut": cfg.n_cut, "dims": per_dims}, None


@_experiment(
    "angular-momentum",
    "two routes to the orbital L_z",
    Option("--dims", "dims", _dim, "2", "dimension, 2 or 3"),
    N_CUT, OMEGA0, HBAR, M,
    tolerances={"routes_agree": 1e-12, "operator_eigenvalue": 1e-12},
)
def _run_angular_momentum(cfg):
    consts = PhysicalConstants(hbar=cfg.hbar, m=cfg.m)
    table = build_oscillator_table(cfg.dims, cfg.omega0, cfg.n_cut, consts)
    rows = np.flatnonzero(table.states.sum(axis=1) < cfg.n_cut)
    pol = lz_expectation(table, rows, method="polarized")
    direct = lz_expectation(table, rows, method="direct")
    m_plus, m_minus = polarized_momenta(table, rows)
    target = (table.states[rows, 0] - table.states[rows, 1]) * consts.hbar
    routes = np.abs(pol - direct)
    eigen = np.abs(pol - target)
    split_sum = np.abs((m_plus + m_minus) - pol)
    split_gap = np.abs((m_plus - m_minus) - consts.hbar)
    checks = [
        _close("routes_agree", 0.0, _worst(routes), _tol(cfg, "routes_agree")),
        _close("operator_eigenvalue", 0.0, _worst(eigen), _tol(cfg, "operator_eigenvalue")),
        _close("channels_sum_to_lz", 0.0, _worst(split_sum), _tol(cfg, "routes_agree")),
        _close("channel_gap_is_hbar", 0.0, _worst(split_gap), _tol(cfg, "routes_agree")),
    ]
    return checks, {"dims": cfg.dims, "n_cut": cfg.n_cut, "states_checked": len(rows)}, None


@_experiment(
    "spin-split",
    "polarized channel split of L_z",
    Option("--lz", "lz", _fraction, "0", "orbital projection in hbar units, exact rational"),
)
def _run_spin_split(cfg):
    lz = cfg.lz
    result = spin_split(lz)
    half = Fraction(1, 2)
    checks = [
        _exact("m_plus", str(lz / 2 + half), str(result.m_plus)),
        _exact("m_minus", str(lz / 2 - half), str(result.m_minus)),
        _exact("sum_reconstructs_lz", str(lz), str(result.m_plus + result.m_minus)),
        _exact("gap_is_hbar", "1", str(result.m_plus - result.m_minus)),
        _exact("total_up", str(result.m_plus), str(total_momentum(lz, half))),
        _exact("total_down", str(result.m_minus), str(total_momentum(lz, -half))),
    ]
    return checks, {"lz": str(lz)}, None


@_experiment(
    "zeeman",
    "level shifts and the doubled spin weight",
    Option("--field", "field", _finite_float, "1.0", "magnetic field of the checks"),
    Option("--b-max", "b_max", _finite_float, "2.0", "last field of the CSV ramp"),
    Option("--b-points", "b_points", _at_least(2), "9", "fields on the CSV ramp"),
    MU0,
    tolerances={"zeeman_gap": 1e-12},
    csv=True,
)
def _run_zeeman(cfg):
    consts = PhysicalConstants(mu0=cfg.mu0)
    identity = magnetic_moment_identity()
    half = Fraction(1, 2)
    pattern_exact = all(
        zeeman_energy(1.0, m_l, m_s) == float(Fraction(m_l) + 2 * m_s)
        for m_l in (-1, 0, 1)
        for m_s in (half, -half)
    )
    gap_err = 0.0
    B = cfg.field
    for m_l in (-1, 0, 1):
        gap = zeeman_energy(B, m_l, half, consts) - zeeman_energy(B, m_l, -half, consts)
        gap_err = max(gap_err, abs(gap - 2.0 * consts.mu0 * B))
    scale = max(abs(2.0 * consts.mu0 * B), 1.0)
    checks = [
        _exact("moment_identity_exact", True, identity.holds),
        _exact("level_pattern_exact", True, pattern_exact),
        _close("spin_gap_doubled", 0.0, gap_err, _tol(cfg, "zeeman_gap") * scale),
    ]
    header = ["B", "m_l", "m_s", "energy"]

    def rows():
        # the ramp is built row by row only when --csv consumes it
        for b_val in np.linspace(0.0, cfg.b_max, cfg.b_points):
            for m_l, m_s, energy in zeeman_levels(float(b_val), consts):
                yield [float(b_val), m_l, float(m_s), energy]

    details = {
        "field": B,
        "levels": [[m_l, str(m_s), e] for m_l, m_s, e in zeeman_levels(B, consts)],
    }
    return checks, details, (header, rows())


@_experiment(
    "dichotomy",
    "two-value constraint on the winding",
    Option("--values", "values", _fractions, "1/2,-1/2", "comma-separated exact rationals"),
)
def _run_dichotomy(cfg):
    values = cfg.values
    result = dichotomy_solve(values)

    half = Fraction(1, 2)
    canonical = dichotomy_solve([half, -half])
    grid = [Fraction(k, 6) for k in range(-12, 13)]
    triples_feasible = 0
    triples = 0
    for triple in combinations(grid, 3):
        triples += 1
        if dichotomy_solve(triple).feasible:
            triples_feasible += 1
    repeated = dichotomy_solve([half, half])
    checks = [
        _exact("canonical_pair_feasible", True, canonical.feasible),
        _exact(
            "canonical_pair",
            "-1/2,1/2",
            ",".join(str(v) for v in (canonical.canonical or ())),
        ),
        _exact("canonical_sign_opposed", True, canonical.sign_opposed),
        _exact("no_feasible_triple", 0, triples_feasible),
        _exact("repeated_value_infeasible", False, repeated.feasible),
    ]
    details = {
        "input": {
            "values": [str(v) for v in values],
            "feasible": result.feasible,
            "sign_opposed": result.sign_opposed,
            "canonical": None
            if result.canonical is None
            else [str(v) for v in result.canonical],
        },
        "triples_searched": triples,
    }
    return checks, details, None


@_experiment(
    "sz",
    "internal rotation generator eigenvalues",
    Option("--winding", "winding", _fraction, "1/2", "winding, exact rational"),
    Option("--points", "points", _at_least(16), "1024", "numeric differentiation grid"),
    HBAR,
    tolerances={"sz_agreement": 1e-8},
)
def _run_sz(cfg):
    winding = cfg.winding
    consts = PhysicalConstants(hbar=cfg.hbar)
    state = SpinState(base_label="alpha", winding=winding)
    symbolic = apply_spin_z(state, "symbolic", consts)
    numeric = apply_spin_z(state, "numeric", consts, grid=cfg.points)
    full_turn = rotation_factor(winding, 2)
    double_turn = rotation_factor(winding, 4)
    checks = [
        _exact("symbolic_eigenvalue", consts.hbar * float(winding), symbolic),
        _close(
            "numeric_matches_symbolic",
            symbolic,
            numeric,
            _tol(cfg, "sz_agreement"),
        ),
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
    probe = derive_antisymmetry(spin_a=1, spin_b=1, ordering=cfg.ordering)
    checks = [
        _exact("derivation_consistent", True, True),
        _exact("exchange_phase", expected_phase, report.solution.value.format()),
        _exact("antisymmetric", fermionic, report.antisymmetric),
        _exact("orderings_agree", True, report.solution.exchange.branches_agree),
        _exact("swap_factor_matches_exchange_phase", expected_phase, report.swap_factor.format()),
        _exact("matches_antisymmetrizer", fermionic, report.matches_antisymmetrizer),
        _exact("integer_spin_probe_symmetric", True, probe.solution.value.is_one),
    ]
    details = {"derivation": report.to_dict(), "probe_phase": probe.solution.value.format()}
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


def _once_per_object(func):
    """func, memoized by object identity.

    Exact labels and coefficients hash slowly (Fraction.__hash__), and the
    terms of one expansion share a handful of such objects between them.
    The memo is only valid while those objects are alive.
    """
    memo: dict = {}

    def lookup(value):
        key = id(value)
        if key not in memo:
            memo[key] = func(value)
        return memo[key]

    return lookup


def _transpositions_flip_sign(labels, state) -> bool:
    """Whether swapping any two of the distinct labels negates the state.

    Swapping labels i and j turns each term of the built expansion into the
    term of the swapped expansion with the same slot assignment, so the
    check relabels the terms already built rather than building n(n-1)/2
    more. Kets become byte strings of label indices, so a relabelling is one
    bytes.translate, and coefficients become small integer class ids, so no
    exact number is hashed per pair.
    """
    index_of = _once_per_object({label: i for i, label in enumerate(labels)}.__getitem__)
    classes: dict = {}
    class_of = _once_per_object(lambda c: classes.setdefault(c, len(classes)))
    keys = [bytes(map(index_of, ket.slots)) for _, ket in state.terms]
    ids = [class_of(c) for c, _ in state.terms]
    flipped = negate(state)
    want = {key: class_of(c) for key, (c, _) in zip(keys, flipped.terms)}
    for i, j in combinations(range(len(labels)), 2):
        table = bytes.maketrans(bytes((i, j)), bytes((j, i)))
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
    norm_sq = sum(
        (c.magnitude.coeff ** 2) * c.magnitude.radicand for c, _ in state.terms
    )
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
    """Write the --report and --csv files; an unwritable path is a usage error.
    Only the commands that produce a series have --csv."""
    csv_path = getattr(args, "csv", None)
    try:
        if args.report:
            Path(args.report).write_text(text + "\n")
        if csv_path:
            header, rows = csv_data
            with open(csv_path, "w", newline="") as handle:
                writer = csv.writer(handle, lineterminator="\n")
                writer.writerow(header)
                writer.writerows(rows)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    experiment = _EXPERIMENTS[args.command]
    start = time.perf_counter()
    try:
        cfg = _resolve(args, experiment)
        checks, details, csv_data = experiment.run(cfg)
        config = {option.dest: getattr(cfg, option.dest) for option in experiment.options}
        config["tolerances"] = dict(sorted(cfg.tolerances.items()))
        body = {
            "schema": 1,
            "command": args.command,
            "config": _jsonable(config),
            "checks": [c.to_dict() for c in checks],
            "details": _jsonable(details or {}),
            "wall_time_s": time.perf_counter() - start,
        }
        text = json.dumps(body, indent=2)
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

    print(text)
    return 0 if all(c.passed for c in checks) else 1


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
