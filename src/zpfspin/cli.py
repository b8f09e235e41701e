"""Command-line front end: run each verification experiment, emit a
machine-readable JSON report, exit 0/1/2.

Every subcommand maps to library operations and wraps their contracts as
self-describing checks {name, expected, actual, tolerance, pass}, so a CI
job can gate on the report without re-deriving any physics. Reports are
deterministic for a fixed (command, config, seed) apart from the wall-time
field. Config precedence is defaults < config file < flags; the config file
is flat key=value text with # comments, keys mirroring the run-config
field names plus tol.<check> tolerance overrides.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .constants import PhysicalConstants
from .errors import (
    CoherenceError,
    ContradictionError,
    IncompleteBasisError,
    ResolutionError,
    SizeLimitError,
)
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
    make_mode,
    mode_observables,
    realization_totals,
    sample_fields,
    sample_realization,
    sample_zeta_ensemble,
    wave_vector,
)
from .oscillator import MatrixElementTable, build_oscillator_table
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


class ConfigError(Exception):
    pass


def _finite_float(text) -> float:
    """float() that refuses inf and nan: either one would turn the checks
    into NaN verdicts instead of a usage error."""
    message = f"expected a finite number, got {text!r}"
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(message) from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(message)
    return value


_CONFIG_FIELDS = {
    "L": _finite_float,
    "n_max": int,
    "grid": int,
    "ensemble": int,
    "pairs": int,
    "seed": int,
    "units": str,
    "hbar": _finite_float,
    "c": _finite_float,
    "m": _finite_float,
    "mu0": _finite_float,
}


@dataclass
class RunConfig:
    L: float = 1.0
    n_max: int = 1
    grid: int = 32
    ensemble: int = 1000
    pairs: int = 10
    seed: int = 7
    units: str = "natural"
    hbar: float = 1.0
    c: float = 1.0
    m: float = 1.0
    mu0: float = 1.0
    tolerances: dict = field(default_factory=dict)

    def constants(self) -> PhysicalConstants:
        if self.units == "natural":
            return PhysicalConstants(1.0, 1.0, 1.0, self.mu0)
        return PhysicalConstants(self.hbar, self.c, self.m, self.mu0)

    def tol(self, name: str, default: float) -> float:
        return float(self.tolerances.get(name, default))


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


# --- argument parsing and configuration ---------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--report", help="also write the JSON report to this path")
    common.add_argument("--csv", help="write plottable series to this path (where supported)")
    common.add_argument("--box", dest="L", type=_finite_float, help="box edge length")
    common.add_argument("--n-max", dest="n_max", type=int, help="mode cutoff |n|_inf")
    common.add_argument("--grid", type=int, help="per-axis quadrature resolution")
    common.add_argument("--ensemble", type=int, help="realization count for ensemble runs")
    common.add_argument("--pairs", type=int, help="mode pairs to test in `phases`")
    common.add_argument("--seed", type=int, help="base RNG seed")
    common.add_argument("--units", choices=("natural", "explicit"))
    common.add_argument("--hbar", type=_finite_float)
    common.add_argument("--c", type=_finite_float)
    common.add_argument("--m", type=_finite_float)
    common.add_argument("--mu0", type=_finite_float)
    common.add_argument(
        "--tol",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="override one check tolerance (repeatable)",
    )

    parser = argparse.ArgumentParser(
        prog="zpfspin",
        description="verification experiments for mode algebra, spectral sums, and exchange symmetry",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mode-observables", parents=[common], help="single-mode H, P, J by quadrature")
    p.add_argument("--n", default="0,0,1", help="integer triple, e.g. 0,0,1")
    p.add_argument("--gamma", default="+1", help="polarization, +1 or -1")

    p = sub.add_parser("field-sample", parents=[common], help="field values along the box diagonal")
    p.add_argument("--points", type=int, default=64)
    p.add_argument("--time", type=_finite_float, default=0.0)

    sub.add_parser("totals", parents=[common], help="whole-realization momentum and spin totals")

    sub.add_parser("phases", parents=[common], help="ensemble independence of mode phases")

    p = sub.add_parser("sum-rule", parents=[common], help="oscillator-strength sum rule")
    p.add_argument("--dims", default="2,3", help="dimensions to run, e.g. 2 or 2,3")
    p.add_argument("--n-cut", dest="n_cut", type=int, default=5)
    p.add_argument("--omega0", type=_finite_float, default=1.0)

    p = sub.add_parser("angular-momentum", parents=[common], help="two routes to the orbital L_z")
    p.add_argument("--dims", type=int, default=2, choices=(2, 3))
    p.add_argument("--n-cut", dest="n_cut", type=int, default=5)
    p.add_argument("--omega0", type=_finite_float, default=1.0)

    p = sub.add_parser("spin-split", parents=[common], help="polarized channel split of L_z")
    p.add_argument("--lz", default="0", help="orbital projection in hbar units, exact rational")

    p = sub.add_parser("zeeman", parents=[common], help="level shifts and the doubled spin weight")
    p.add_argument("--field", type=_finite_float, default=1.0)
    p.add_argument("--b-max", dest="b_max", type=_finite_float, default=2.0)
    p.add_argument("--b-points", dest="b_points", type=int, default=9)

    p = sub.add_parser("dichotomy", parents=[common], help="two-value constraint on the winding")
    p.add_argument("--values", default="1/2,-1/2", help="comma-separated exact rationals")

    p = sub.add_parser("sz", parents=[common], help="internal rotation generator eigenvalues")
    p.add_argument("--winding", default="1/2")
    p.add_argument("--points", type=int, default=1024, help="numeric differentiation grid")

    p = sub.add_parser("exchange-derive", parents=[common], help="mechanical exchange-phase derivation")
    p.add_argument("--spin-a", dest="spin_a", default="1/2")
    p.add_argument("--spin-b", dest="spin_b", default="1/2")
    p.add_argument("--ordering", default="phi2_greater", choices=("phi2_greater", "phi1_greater", "tie"))

    p = sub.add_parser("antiphase", parents=[common], help="pairwise antiphase feasibility")
    p.add_argument("--n", type=int, default=3)

    p = sub.add_parser("slater", parents=[common], help="n-particle antisymmetrizer checks")
    p.add_argument("--labels", default="a:1/2,b:-1/2", help="orbital:spin list")

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


def _resolve_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        for key, value in _load_config_file(args.config).items():
            if key.startswith("tol."):
                try:
                    cfg.tolerances[key[4:]] = _finite_float(value)
                except argparse.ArgumentTypeError as exc:
                    raise ConfigError(f"bad tolerance {key}={value}") from exc
                continue
            kind = _CONFIG_FIELDS.get(key)
            if kind is None:
                raise ConfigError(f"unknown config key {key!r}")
            try:
                setattr(cfg, key, kind(value))
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ConfigError(f"bad value for {key}: {value!r}") from exc
    for key in _CONFIG_FIELDS:
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    for entry_ in args.tol:
        name, sep, value = entry_.partition("=")
        if not sep:
            raise ConfigError(f"--tol expects NAME=VALUE, got {entry_!r}")
        try:
            cfg.tolerances[name.strip()] = _finite_float(value)
        except argparse.ArgumentTypeError as exc:
            raise ConfigError(f"bad tolerance value in {entry_!r}") from exc
    if cfg.units not in ("natural", "explicit"):
        raise ConfigError(f"units must be natural or explicit, got {cfg.units!r}")
    if cfg.L <= 0:
        raise ConfigError("box length must be positive")
    if cfg.n_max < 1:
        raise ConfigError("n_max must be at least 1")
    if cfg.ensemble < 1:
        raise ConfigError("ensemble must be at least 1")
    if cfg.pairs < 1:
        raise ConfigError("pairs must be at least 1")
    return cfg


def _config_dict(cfg: RunConfig) -> dict:
    out = {key: getattr(cfg, key) for key in _CONFIG_FIELDS}
    out["tolerances"] = {k: cfg.tolerances[k] for k in sorted(cfg.tolerances)}
    return out


def _parse_triple(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"--n expects three comma-separated integers, got {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"bad mode index {text!r}") from exc


def _parse_gamma(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise ConfigError(f"--gamma expects +1 or -1, got {text!r}") from exc
    if value not in (1, -1):
        raise ConfigError(f"--gamma expects +1 or -1, got {text!r}")
    return value


def _parse_fraction(text: str, what: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{what} expects an exact rational, got {text!r}") from exc


# --- subcommand runners -------------------------------------------------------


def _run_mode_observables(cfg: RunConfig, args):
    n = _parse_triple(args.n)
    gamma = _parse_gamma(args.gamma)
    consts = cfg.constants()
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 11]))
    draws = [tuple(rng.uniform(0.0, 2.0 * np.pi, 2)) for _ in range(2)]
    observed = []
    for zeta, phi in draws:
        mode = make_mode(n, gamma, zeta, phi, cfg.L, consts)
        observed.append(mode_observables(mode, cfg.L, cfg.grid, consts))
    ref = analytic_mode_observables(
        make_mode(n, gamma, *draws[0], cfg.L, consts), cfg.L, consts
    )
    rel = cfg.tol("observables", 1e-9)
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
        _close("phase_independence", 0.0, swap_err, cfg.tol("phase_independence", 1e-12)),
    ]
    details = {
        "n": list(n),
        "gamma": gamma,
        "analytic": {"H": ref.H, "P": ref.P, "J": ref.J},
        "quadrature": {"H": first.H, "P": first.P, "J": first.J},
    }
    return checks, details, None


def _run_field_sample(cfg: RunConfig, args):
    if args.points < 1:
        raise ConfigError("--points must be at least 1")
    consts = cfg.constants()
    real = sample_realization(cfg.L, cfg.n_max, cfg.seed, consts)
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
        _close("transversality", 0.0, transversal, cfg.tol("transversality", 1e-12)),
        _close("b_tracks_a", 0.0, circular, cfg.tol("field_circular", 1e-12)),
        _close("linearity", 0.0, linear, cfg.tol("field_linearity", 1e-12)),
    ]
    header = ["s", "x", "y", "z", "Ax", "Ay", "Az", "Ex", "Ey", "Ez", "Bx", "By", "Bz"]
    rows = [
        [float(s), *points[i].tolist(), *A[i].tolist(), *E[i].tolist(), *B[i].tolist()]
        for i, s in enumerate(s_vals)
    ]
    details = {"modes": len(real.modes), "points": args.points, "time": args.time}
    return checks, details, (header, rows)


def _run_totals(cfg: RunConfig, args):
    consts = cfg.constants()
    real = sample_realization(cfg.L, cfg.n_max, cfg.seed, consts)
    totals = realization_totals(real, consts)
    expected_count = 2 * ((2 * cfg.n_max + 1) ** 3 - 1)

    base = real.modes[0]
    partner = make_mode(base.n, -base.gamma, 0.5, 1.5, cfg.L, consts)
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


def _run_phases(cfg: RunConfig, args):
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


def _parse_dims(text) -> list:
    try:
        dims = [int(p) for p in str(text).split(",")]
    except ValueError as exc:
        raise ConfigError(f"--dims expects integers, got {text!r}") from exc
    for d in dims:
        if d not in (2, 3):
            raise ConfigError(f"dims must be 2 or 3, got {d}")
    return dims


def _worst(errors) -> float:
    """Largest of the per-state errors, NaN if any of them is NaN (the
    builtin max drops a NaN that is not its first argument)."""
    return float(np.max(errors, initial=0.0))


def _run_sum_rule(cfg: RunConfig, args):
    consts = cfg.constants()
    if args.n_cut < 1:
        raise ConfigError("--n-cut must be at least 1")
    checks = []
    per_dims = {}
    for dims in _parse_dims(args.dims):
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
            _close(f"sum_rule_rel_err[dims={dims}]", 0.0, _worst(errors), cfg.tol("sum_rule", 1e-12))
        )
        checks.append(_exact(f"incomplete_cutoff_detected[dims={dims}]", True, detected))
        per_dims[str(dims)] = {"states_checked": len(errors), "target": consts.hbar}
    return checks, {"n_cut": args.n_cut, "dims": per_dims}, None


def _run_angular_momentum(cfg: RunConfig, args):
    consts = cfg.constants()
    if args.n_cut < 1:
        raise ConfigError("--n-cut must be at least 1")
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
        _close("routes_agree", 0.0, _worst(routes), cfg.tol("routes_agree", 1e-12)),
        _close("operator_eigenvalue", 0.0, _worst(eigen), cfg.tol("operator_eigenvalue", 1e-12)),
        _close("channels_sum_to_lz", 0.0, _worst(split_sum), cfg.tol("routes_agree", 1e-12)),
        _close("channel_gap_is_hbar", 0.0, _worst(split_gap), cfg.tol("routes_agree", 1e-12)),
    ]
    return checks, {"dims": args.dims, "n_cut": args.n_cut, "states_checked": len(routes)}, None


def _run_spin_split(cfg: RunConfig, args):
    lz = _parse_fraction(args.lz, "--lz")
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
        _close("spin_gap_doubled", 0.0, gap_err, cfg.tol("zeeman_gap", 1e-12) * scale),
    ]
    if args.b_points < 2:
        raise ConfigError("--b-points must be at least 2")
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


def _run_dichotomy(cfg: RunConfig, args):
    values = [_parse_fraction(v, "--values entry") for v in args.values.split(",")]
    if not values:
        raise ConfigError("--values needs at least one entry")
    result = dichotomy_solve(values)

    half = Fraction(1, 2)
    canonical = dichotomy_solve([half, -half])
    grid = [Fraction(k, 6) for k in range(-12, 13)]
    triples_feasible = 0
    triples = 0
    from itertools import combinations

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


def _run_sz(cfg: RunConfig, args):
    winding = _parse_fraction(args.winding, "--winding")
    consts = cfg.constants()
    try:
        state = SpinState(base_label="alpha", winding=winding)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
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
            cfg.tol("sz_agreement", 1e-8),
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


def _run_exchange_derive(cfg: RunConfig, args):
    spin_a = _parse_fraction(args.spin_a, "--spin-a")
    spin_b = _parse_fraction(args.spin_b, "--spin-b")
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


def _run_antiphase(cfg: RunConfig, args):
    if args.n < 1:
        raise ConfigError("--n must be at least 1")
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


def _parse_labels(text: str) -> list:
    labels = []
    for token in text.split(","):
        name, sep, spin = token.partition(":")
        if not sep:
            raise ConfigError(f"--labels entries look like orbital:spin, got {token!r}")
        labels.append((name.strip(), _parse_fraction(spin, "spin")))
    return labels


def _run_slater(cfg: RunConfig, args):
    labels = _parse_labels(args.labels)
    state = antisymmetrize(labels)
    n = len(labels)
    distinct = len(set(labels)) == n
    expected_terms = math.factorial(n) if distinct else 0
    flips_ok = True
    if distinct:
        flipped = negate(state)
        for i in range(n):
            for j in range(i + 1, n):
                swapped = list(labels)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                if antisymmetrize(swapped).terms != flipped.terms:
                    flips_ok = False
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


_COMMANDS = {
    "mode-observables": _run_mode_observables,
    "field-sample": _run_field_sample,
    "totals": _run_totals,
    "phases": _run_phases,
    "sum-rule": _run_sum_rule,
    "angular-momentum": _run_angular_momentum,
    "spin-split": _run_spin_split,
    "zeeman": _run_zeeman,
    "dichotomy": _run_dichotomy,
    "sz": _run_sz,
    "exchange-derive": _run_exchange_derive,
    "antiphase": _run_antiphase,
    "slater": _run_slater,
}

_CSV_COMMANDS = ("field-sample", "zeeman")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    start = time.perf_counter()
    try:
        cfg = _resolve_config(args)
        if args.csv and args.command not in _CSV_COMMANDS:
            raise ConfigError(f"{args.command} does not produce CSV output")
        checks, details, csv_data = _COMMANDS[args.command](cfg, args)
    except (
        ConfigError,
        ResolutionError,
        SizeLimitError,
        CoherenceError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    body = {
        "schema": 1,
        "command": args.command,
        "config": _jsonable(_config_dict(cfg)),
        "checks": [c.to_dict() for c in checks],
        "details": _jsonable(details or {}),
        "wall_time_s": time.perf_counter() - start,
    }
    text = json.dumps(body, indent=2)
    print(text)
    if args.report:
        Path(args.report).write_text(text + "\n")
    if args.csv and csv_data is not None:
        header, rows = csv_data
        with open(args.csv, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    return 0 if all(c.passed for c in checks) else 1


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
