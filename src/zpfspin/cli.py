"""Command-line front end: run each verification experiment, emit a
machine-readable JSON report, exit 0/1/2/3.

Every subcommand maps to library operations and wraps their contracts as
self-describing checks {name, expected, actual, tolerance, pass}, so a CI
job can gate on the report without re-deriving any physics. Reports are
deterministic for a fixed (command, config, seed) apart from the wall-time
field. Config precedence is defaults < config file < flags; the config file
is flat key=value text with # comments, keys mirroring the run-config
field names plus tol.<name> overrides of the tolerances the command
declares. The constants hbar, c, m and mu0 default to 1, natural units,
and any of them may be set; the report's config echoes the values used.

Each subcommand is declared once, by the @_experiment decorator on its
runner, and each run-config field once, by its _setting; the parser, the
--help epilogs, the config-file parser and the tolerance and CSV checks are
derived from those declarations. Every value is validated by its argparse
type when it is parsed, whether it comes from a flag or the config file.
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
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from itertools import combinations, repeat
from pathlib import Path

import numpy as np

from .constants import PhysicalConstants
from .errors import ContradictionError, IncompleteBasisError
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
from .oscillator import MatrixElementTable, build_oscillator_table, check_table_size
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
_dims = _checked("2, 3 or 2,3", _comma_list(int), lambda dims: set(dims) <= {2, 3})
_fraction = _checked("an exact rational", Fraction)
_fractions = _checked("comma-separated exact rationals", _comma_list(Fraction))
_labels = _checked("comma-separated orbital:spin labels", _comma_list(_label))


# --- run configuration and the experiment registry ----------------------------


def _setting(default, flag: str, kind, help: str):
    """A RunConfig field, set by `flag` or by its own name in a config file;
    `kind` parses and validates both."""
    return field(default=default, metadata={"flag": flag, "kind": kind, "help": help})


@dataclass
class RunConfig:
    L: float = _setting(1.0, "--box", _positive, "box edge length")
    n_max: int = _setting(1, "--n-max", _at_least(1), "mode cutoff |n|_inf")
    grid: int = _setting(32, "--grid", int, "per-axis quadrature resolution")
    ensemble: int = _setting(1000, "--ensemble", _at_least(1), "realization count for ensemble runs")
    pairs: int = _setting(10, "--pairs", _at_least(1), "mode pairs to test in `phases`")
    seed: int = _setting(7, "--seed", _at_least(0), "base RNG seed")
    hbar: float = _setting(1.0, "--hbar", _positive, "reduced Planck constant")
    c: float = _setting(1.0, "--c", _positive, "speed of light")
    m: float = _setting(1.0, "--m", _positive, "oscillator mass")
    mu0: float = _setting(1.0, "--mu0", _positive, "magneton setting the Zeeman scale")
    tolerances: dict = field(default_factory=dict)

    def constants(self) -> PhysicalConstants:
        return PhysicalConstants(self.hbar, self.c, self.m, self.mu0)

    def tol(self, name: str) -> float:
        """The override of tolerance `name`, else the default its command declares."""
        if name in self.tolerances:
            return float(self.tolerances[name])
        return next(e.tolerances[name] for e in _EXPERIMENTS.values() if name in e.tolerances)


_SETTINGS = {f.name: f.metadata for f in fields(RunConfig) if f.metadata}


@dataclass(frozen=True)
class Experiment:
    """One subcommand as its runner declares it."""

    run: object
    help: str
    flags: tuple  # (option strings, add_argument keywords) pairs
    tolerances: dict  # check tolerance -> default; each name belongs to one command
    csv: bool

    def declared(self) -> str:
        items = self.tolerances.items()
        return ", ".join(f"{name}={value:g}" for name, value in items) or "none"


_EXPERIMENTS: dict = {}


def _experiment(name: str, help: str, *flags, tolerances=None, csv=False):
    """Register the decorated runner as subcommand `name`, with its own
    flags (from _flag), tolerance defaults and CSV support. The runner is
    returned unchanged and looks up library functions as module globals
    when it runs."""

    def register(run):
        _EXPERIMENTS[name] = Experiment(run, help, flags, tolerances or {}, csv)
        return run

    return register


def _flag(*names, **kwargs) -> tuple:
    return names, kwargs


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser derived from RunConfig and _EXPERIMENTS,
    built once per process."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--report", help="also write the JSON report to this path")
    common.add_argument("--csv", help="write plottable series to this path (where supported)")
    for name, meta in _SETTINGS.items():
        common.add_argument(meta["flag"], dest=name, type=meta["kind"], help=meta["help"])
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
        p = sub.add_parser(
            name,
            parents=[common],
            help=experiment.help,
            epilog=f"tolerances (--tol NAME=VALUE): {experiment.declared()}",
        )
        for names, kwargs in experiment.flags:
            p.add_argument(*names, **kwargs)
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


def _resolve_config(args, experiment: Experiment) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        for key, value in _load_config_file(args.config).items():
            if key.startswith("tol."):
                cfg.tolerances[key[4:]] = _config_value(key, value, _tolerance_value)
            elif key in _SETTINGS:
                setattr(cfg, key, _config_value(key, value, _SETTINGS[key]["kind"]))
            else:
                raise ConfigError(f"unknown config key {key!r}")
    for key in _SETTINGS:
        value = getattr(args, key)
        if value is not None:
            setattr(cfg, key, value)
    cfg.tolerances.update(args.tol)
    for name in cfg.tolerances:
        if name not in experiment.tolerances:
            raise ConfigError(
                f"{args.command} declares no tolerance {name!r}; "
                f"declared: {experiment.declared()}"
            )
    return cfg


def _config_dict(cfg: RunConfig) -> dict:
    out = asdict(cfg)
    out["tolerances"] = dict(sorted(cfg.tolerances.items()))
    return out


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
    _flag("--n", type=_mode_index, default="0,0,1", help="integer triple, e.g. 0,0,1"),
    _flag("--gamma", type=_gamma, default="+1", help="polarization, +1 or -1"),
    tolerances={"observables": 1e-9, "phase_independence": 1e-12},
)
def _run_mode_observables(cfg: RunConfig, args):
    check_quadrature_size(cfg.grid)
    n, gamma = args.n, args.gamma
    consts = cfg.constants()
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 11]))
    draws = [tuple(rng.uniform(0.0, 2.0 * np.pi, 2)) for _ in range(2)]
    observed = []
    for zeta, phi in draws:
        mode = make_mode(n, gamma, zeta, phi, cfg.L)
        observed.append(mode_observables(mode, cfg.L, cfg.grid, consts))
    ref = analytic_mode_observables(
        make_mode(n, gamma, *draws[0], cfg.L), cfg.L, consts
    )
    rel = cfg.tol("observables")
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
        _close("phase_independence", 0.0, swap_err, cfg.tol("phase_independence")),
    ]
    details = {
        "n": list(n),
        "gamma": gamma,
        "analytic": {"H": ref.H, "P": ref.P, "J": ref.J},
        "quadrature": {"H": first.H, "P": first.P, "J": first.J},
    }
    return checks, details, None


@_experiment(
    "field-sample",
    "field values along the box diagonal",
    _flag("--points", type=_at_least(1), default=64),
    _flag("--time", type=_finite_float, default=0.0),
    tolerances={"transversality": 1e-12, "field_circular": 1e-12, "field_linearity": 1e-12},
    csv=True,
)
def _run_field_sample(cfg: RunConfig, args):
    check_field_size(args.points)
    consts = cfg.constants()
    check_mode_scales(cfg.L, cfg.n_max, consts)
    real = sample_realization(cfg.L, cfg.n_max, cfg.seed)
    s_vals = np.linspace(0.0, 1.0, args.points, endpoint=False)
    points = s_vals[:, None] * np.array([cfg.L, cfg.L, cfg.L])
    A, E, B = sample_fields(real, points, args.time, consts)

    m0, m1 = real.modes[0], real.modes[1]
    single = ZpfRealization(cfg.L, (m0,))
    A1, E1, B1 = sample_fields(single, points, args.time, consts)
    k = wave_vector(m0.n, cfg.L)
    khat = k / np.linalg.norm(k)
    transversal = max(
        float(np.max(np.abs(A1 @ khat))), float(np.max(np.abs(E1 @ khat)))
    )
    circular = float(np.max(np.abs(B1 - m0.gamma * np.linalg.norm(k) * A1)))
    both = ZpfRealization(cfg.L, (m0, m1))
    A2, E2, B2 = sample_fields(ZpfRealization(cfg.L, (m1,)), points, args.time, consts)
    Ab, Eb, Bb = sample_fields(both, points, args.time, consts)
    linear = max(
        float(np.max(np.abs(Ab - (A1 + A2)))),
        float(np.max(np.abs(Eb - (E1 + E2)))),
        float(np.max(np.abs(Bb - (B1 + B2)))),
    )
    checks = [
        _close("transversality", 0.0, transversal, cfg.tol("transversality")),
        _close("b_tracks_a", 0.0, circular, cfg.tol("field_circular")),
        _close("linearity", 0.0, linear, cfg.tol("field_linearity")),
    ]
    header = ["s", "x", "y", "z", "Ax", "Ay", "Az", "Ex", "Ey", "Ez", "Bx", "By", "Bz"]
    # built row by row only when --csv consumes them
    rows = (
        [float(s), *points[i].tolist(), *A[i].tolist(), *E[i].tolist(), *B[i].tolist()]
        for i, s in enumerate(s_vals)
    )
    details = {"modes": len(real.modes), "points": args.points, "time": args.time}
    return checks, details, (header, rows)


@_experiment("totals", "whole-realization momentum and spin totals")
def _run_totals(cfg: RunConfig, args):
    consts = cfg.constants()
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


@_experiment("phases", "ensemble independence of mode phases")
def _run_phases(cfg: RunConfig, args):
    check_ensemble_size(cfg.n_max, cfg.ensemble)
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
    _flag("--dims", type=_dims, default="2,3", help="dimensions to run, e.g. 2 or 2,3"),
    _flag("--n-cut", type=_at_least(1), default=5),
    _flag("--omega0", type=_positive, default=1.0),
    tolerances={"sum_rule": 1e-12},
)
def _run_sum_rule(cfg: RunConfig, args):
    consts = cfg.constants()
    for dims in args.dims:
        check_table_size(dims, args.n_cut)
    checks = []
    per_dims = {}
    for dims in args.dims:
        table = build_oscillator_table(dims, args.omega0, args.n_cut, consts)
        errors = []
        for label in table.labels:
            if not table.coupling_complete(label):
                continue
            value = trk_sum_rule(table, label)
            errors.append(abs(value - consts.hbar) / consts.hbar)
        top = next(l for l in table.labels if MatrixElementTable.shell(l) == args.n_cut)
        try:
            trk_sum_rule(table, top)
            detected = False
        except IncompleteBasisError:
            detected = True
        checks.append(
            _close(f"sum_rule_rel_err[dims={dims}]", 0.0, _worst(errors), cfg.tol("sum_rule"))
        )
        checks.append(_exact(f"incomplete_cutoff_detected[dims={dims}]", True, detected))
        per_dims[str(dims)] = {"states_checked": len(errors), "target": consts.hbar}
    return checks, {"n_cut": args.n_cut, "dims": per_dims}, None


@_experiment(
    "angular-momentum",
    "two routes to the orbital L_z",
    _flag("--dims", type=int, default=2, choices=(2, 3)),
    _flag("--n-cut", type=_at_least(1), default=5),
    _flag("--omega0", type=_positive, default=1.0),
    tolerances={"routes_agree": 1e-12, "operator_eigenvalue": 1e-12},
)
def _run_angular_momentum(cfg: RunConfig, args):
    consts = cfg.constants()
    table = build_oscillator_table(args.dims, args.omega0, args.n_cut, consts)
    routes, eigen, split_sum, split_gap = [], [], [], []
    for label in table.labels:
        if not table.coupling_complete(label):
            continue
        pol = lz_expectation(table, label, method="polarized")
        direct = lz_expectation(table, label, method="direct")
        target = table.m_ell(label) * consts.hbar
        routes.append(abs(pol - direct))
        eigen.append(abs(pol - target))
        m_plus, m_minus = polarized_momenta(table, label)
        split_sum.append(abs((m_plus + m_minus) - pol))
        split_gap.append(abs((m_plus - m_minus) - consts.hbar))
    checks = [
        _close("routes_agree", 0.0, _worst(routes), cfg.tol("routes_agree")),
        _close("operator_eigenvalue", 0.0, _worst(eigen), cfg.tol("operator_eigenvalue")),
        _close("channels_sum_to_lz", 0.0, _worst(split_sum), cfg.tol("routes_agree")),
        _close("channel_gap_is_hbar", 0.0, _worst(split_gap), cfg.tol("routes_agree")),
    ]
    return checks, {"dims": args.dims, "n_cut": args.n_cut, "states_checked": len(routes)}, None


@_experiment(
    "spin-split",
    "polarized channel split of L_z",
    _flag("--lz", type=_fraction, default="0", help="orbital projection in hbar units, exact rational"),
)
def _run_spin_split(cfg: RunConfig, args):
    lz = args.lz
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
    _flag("--field", type=_finite_float, default=1.0),
    _flag("--b-max", type=_finite_float, default=2.0),
    _flag("--b-points", type=_at_least(2), default=9),
    tolerances={"zeeman_gap": 1e-12},
    csv=True,
)
def _run_zeeman(cfg: RunConfig, args):
    consts = cfg.constants()
    identity = magnetic_moment_identity()
    half = Fraction(1, 2)
    pattern_exact = all(
        zeeman_energy(1.0, m_l, m_s) == float(Fraction(m_l) + 2 * m_s)
        for m_l in (-1, 0, 1)
        for m_s in (half, -half)
    )
    gap_err = 0.0
    B = args.field
    for m_l in (-1, 0, 1):
        gap = zeeman_energy(B, m_l, half, consts) - zeeman_energy(B, m_l, -half, consts)
        gap_err = max(gap_err, abs(gap - 2.0 * consts.mu0 * B))
    scale = max(abs(2.0 * consts.mu0 * B), 1.0)
    checks = [
        _exact("moment_identity_exact", True, identity.holds),
        _exact("level_pattern_exact", True, pattern_exact),
        _close("spin_gap_doubled", 0.0, gap_err, cfg.tol("zeeman_gap") * scale),
    ]
    header = ["B", "m_l", "m_s", "energy"]
    rows = []
    for b_val in np.linspace(0.0, args.b_max, args.b_points):
        for m_l, m_s, energy in zeeman_levels(float(b_val), consts):
            rows.append([float(b_val), m_l, float(m_s), energy])
    details = {
        "field": B,
        "levels": [[m_l, str(m_s), e] for m_l, m_s, e in zeeman_levels(B, consts)],
    }
    return checks, details, (header, rows)


@_experiment(
    "dichotomy",
    "two-value constraint on the winding",
    _flag("--values", type=_fractions, default="1/2,-1/2", help="comma-separated exact rationals"),
)
def _run_dichotomy(cfg: RunConfig, args):
    values = args.values
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
    _flag("--winding", type=_fraction, default="1/2"),
    # apply_spin_z refuses grids below its own floor
    _flag("--points", type=int, default=1024, help="numeric differentiation grid"),
    tolerances={"sz_agreement": 1e-8},
)
def _run_sz(cfg: RunConfig, args):
    winding = args.winding
    consts = cfg.constants()
    state = SpinState(base_label="alpha", winding=winding)
    symbolic = apply_spin_z(state, "symbolic", consts)
    numeric = apply_spin_z(state, "numeric", consts, grid=args.points)
    full_turn = rotation_factor(winding, 2)
    double_turn = rotation_factor(winding, 4)
    checks = [
        _exact("symbolic_eigenvalue", consts.hbar * float(winding), symbolic),
        _close(
            "numeric_matches_symbolic",
            symbolic,
            numeric,
            cfg.tol("sz_agreement"),
        ),
        _exact("full_turn_is_minus_one", True, full_turn.is_minus_one),
        _exact("double_turn_is_identity", True, double_turn.is_one),
    ]
    details = {
        "winding": str(winding),
        "grid": args.points,
        "full_turn_phase": full_turn.format(),
    }
    return checks, details, None


@_experiment(
    "exchange-derive",
    "mechanical exchange-phase derivation",
    _flag("--spin-a", type=_fraction, default="1/2"),
    _flag("--spin-b", type=_fraction, default="1/2"),
    _flag("--ordering", default="phi2_greater", choices=("phi2_greater", "phi1_greater", "tie")),
)
def _run_exchange_derive(cfg: RunConfig, args):
    spin_a, spin_b = args.spin_a, args.spin_b
    try:
        report = derive_antisymmetry(
            spin_a=spin_a, spin_b=spin_b, ordering=args.ordering
        )
    except ContradictionError as exc:
        checks = [_exact("derivation_consistent", True, False)]
        return checks, {"error": str(exc)}, None

    fermionic = (2 * spin_a) % 2 == 1 and (2 * spin_b) % 2 == 1
    expected_phase = "1*pi" if fermionic else "0"
    probe = derive_antisymmetry(spin_a=1, spin_b=1, ordering=args.ordering)
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


@_experiment("antiphase", "pairwise antiphase feasibility", _flag("--n", type=_at_least(1), default=3))
def _run_antiphase(cfg: RunConfig, args):
    result = antiphase_feasible(args.n)
    checks = [_exact("feasible_iff_pair_or_less", args.n <= 2, result.feasible)]
    if result.cross_check is not None:
        checks.append(_exact("grid_cross_check", True, result.cross_check))
    details = {
        "n": args.n,
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
    _flag("--labels", type=_labels, default="a:1/2,b:-1/2", help="orbital:spin list"),
)
def _run_slater(cfg: RunConfig, args):
    labels = args.labels
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
    """Write the --report and --csv files; an unwritable path is a usage error."""
    try:
        if args.report:
            Path(args.report).write_text(text + "\n")
        if args.csv:
            header, rows = csv_data
            with open(args.csv, "w", newline="") as handle:
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
        cfg = _resolve_config(args, experiment)
        if args.csv and not experiment.csv:
            raise ConfigError(f"{args.command} does not produce CSV output")
        checks, details, csv_data = experiment.run(cfg, args)
        body = {
            "schema": 1,
            "command": args.command,
            "config": _jsonable(_config_dict(cfg)),
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
