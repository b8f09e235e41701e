"""Command-line surface: report schema, exit codes, config handling, CSV."""

import argparse
import csv
import dataclasses
import importlib.util
import json
import math
import re
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from zpfspin import cli, modes, oscillator
from zpfspin.cli import _run_angular_momentum, _run_sum_rule, main
from zpfspin.oscillator import build_oscillator_table
from zpfspin.phase_algebra import MINUS_ONE

# the options each command reads, in the order its report's config echoes them
COMMAND_OPTIONS = {
    "mode-observables": ["n", "gamma", "grid", "L", "hbar", "c", "seed"],
    "field-sample": ["points", "time", "L", "n_max", "hbar", "c", "seed"],
    "totals": ["L", "n_max", "hbar", "c", "seed"],
    "phases": ["n_max", "ensemble", "pairs", "seed"],
    "sum-rule": ["dims", "n_cut", "omega0", "hbar", "m", "seed"],
    "angular-momentum": ["dims", "n_cut", "omega0", "hbar", "m", "seed"],
    "spin-split": ["lz", "seed"],
    "zeeman": ["field", "b_max", "b_points", "mu0", "seed"],
    "dichotomy": ["values", "seed"],
    "sz": ["winding", "points", "hbar", "seed"],
    "exchange-derive": ["spin_a", "spin_b", "ordering", "seed"],
    "antiphase": ["n", "seed"],
    "slater": ["labels", "seed"],
}

ALL_COMMANDS = list(COMMAND_OPTIONS)

FAST_ARGS = {
    "phases": ["--ensemble", "200", "--pairs", "3"],
    "sum-rule": ["--n-cut", "4"],
    "angular-momentum": ["--n-cut", "4"],
}


def run(capsys, args):
    code = main(args)
    out = capsys.readouterr().out
    return code, json.loads(out)


def resolved(argv):
    """The namespace the runner of argv[0] receives, without running it."""
    args = cli._parser().parse_args(argv)
    return cli._resolve(args, cli._EXPERIMENTS[args.command])


@pytest.mark.parametrize("command", ALL_COMMANDS)
def test_every_command_reports_and_passes(capsys, command):
    code, body = run(capsys, [command, *FAST_ARGS.get(command, [])])
    assert code == 0
    assert body["schema"] == 1
    assert body["command"] == command
    assert set(body) == {"schema", "command", "config", "checks", "details", "wall_time_s"}
    assert list(body["config"]) == [*COMMAND_OPTIONS[command], "tolerances"]
    assert body["checks"]
    for check in body["checks"]:
        assert set(check) == {"name", "expected", "actual", "tolerance", "pass"}
        assert check["pass"] is True
    assert isinstance(body["wall_time_s"], float)


def test_reports_are_deterministic(capsys):
    _, first = run(capsys, ["mode-observables", "--n", "1,0,2", "--gamma", "-1"])
    _, second = run(capsys, ["mode-observables", "--n", "1,0,2", "--gamma", "-1"])
    first.pop("wall_time_s")
    second.pop("wall_time_s")
    assert first == second


def test_report_file_matches_stdout(capsys, tmp_path):
    path = tmp_path / "report.json"
    code = main(["spin-split", "--lz", "1", "--report", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert path.read_text() == out


@pytest.mark.parametrize(
    "argv,option",
    [
        (["spin-split", "--lz", "1"], "--report"),
        (["zeeman"], "--csv"),
        (["field-sample", "--points", "4"], "--csv"),
    ],
)
def test_unwritable_output_path_exits_two(capsys, tmp_path, argv, option):
    path = tmp_path / "missing" / "out"
    assert main([*argv, option, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write output: ")
    assert str(path) in captured.err


SPIN_SPLIT_REPORT = """\
{
  "schema": 1,
  "command": "spin-split",
  "config": {
    "lz": "1",
    "seed": 7,
    "tolerances": {}
  },
  "checks": [
    {
      "name": "m_plus",
      "expected": "1",
      "actual": "1",
      "tolerance": 0.0,
      "pass": true
    },
    {
      "name": "m_minus",
      "expected": "0",
      "actual": "0",
      "tolerance": 0.0,
      "pass": true
    },
    {
      "name": "sum_reconstructs_lz",
      "expected": "1",
      "actual": "1",
      "tolerance": 0.0,
      "pass": true
    },
    {
      "name": "gap_is_hbar",
      "expected": "1",
      "actual": "1",
      "tolerance": 0.0,
      "pass": true
    },
    {
      "name": "total_up",
      "expected": "1",
      "actual": "1",
      "tolerance": 0.0,
      "pass": true
    },
    {
      "name": "total_down",
      "expected": "0",
      "actual": "0",
      "tolerance": 0.0,
      "pass": true
    }
  ],
  "details": {
    "lz": "1"
  }"""

ANTIPHASE_REPORT = """\
{
  "schema": 1,
  "command": "antiphase",
  "config": {
    "n": 2,
    "seed": 7,
    "tolerances": {}
  },
  "checks": [
    {
      "name": "feasible_iff_pair_or_less",
      "expected": true,
      "actual": true,
      "tolerance": 0.0,
      "pass": true
    },
    {
      "name": "grid_cross_check",
      "expected": true,
      "actual": true,
      "tolerance": 0.0,
      "pass": true
    }
  ],
  "details": {
    "n": 2,
    "witness": [
      "0*pi",
      "1*pi"
    ]
  }"""


@pytest.mark.parametrize(
    "argv,expected",
    [(["spin-split", "--lz", "1"], SPIN_SPLIT_REPORT), (["antiphase", "--n", "2"], ANTIPHASE_REPORT)],
)
def test_exact_report_text_is_pinned(capsys, argv, expected):
    # key order, indentation and the config echo, all but the wall time
    assert main(argv) == 0
    text, sep, wall = capsys.readouterr().out.rpartition(',\n  "wall_time_s": ')
    assert sep
    assert float(wall.removesuffix("\n}\n")) >= 0.0
    assert text == expected


def test_help_lists_every_command(capsys):
    assert main(["--help"]) == 0
    listed = re.search(r"\{([^}]*)\}", capsys.readouterr().out).group(1)
    assert listed.split(",") == ALL_COMMANDS


def test_failing_check_exits_one(capsys):
    code = main(["sum-rule", "--n-cut", "4", "--tol", "sum_rule=1e-30"])
    capsys.readouterr()
    assert code == 1


def test_unknown_command_exits_two(capsys):
    assert main(["does-not-exist"]) == 2
    err = capsys.readouterr().err
    assert "usage" in err.lower()


def test_bad_flag_value_exits_two(capsys):
    assert main(["sz", "--points", "abc"]) == 2
    capsys.readouterr()


def test_unresolvable_grid_exits_two(capsys):
    # below the quadrature floor for this mode
    assert main(["mode-observables", "--n", "0,0,1", "--grid", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_csv_only_where_supported(capsys, tmp_path):
    path = tmp_path / "out.csv"
    assert main(["totals", "--csv", str(path)]) == 2
    capsys.readouterr()
    assert not path.exists()


def test_field_sample_csv_columns(capsys, tmp_path):
    path = tmp_path / "fields.csv"
    code = main(["field-sample", "--points", "6", "--csv", str(path)])
    capsys.readouterr()
    assert code == 0
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == [
        "s", "x", "y", "z",
        "Ax", "Ay", "Az", "Ex", "Ey", "Ez", "Bx", "By", "Bz",
    ]
    assert len(rows) == 7
    floats = [float(v) for v in rows[1]]
    assert len(floats) == 13


def test_zeeman_ramp_built_only_for_csv(capsys, monkeypatch, tmp_path):
    calls = []
    levels = cli.zeeman_levels
    monkeypatch.setattr(cli, "zeeman_levels", lambda *a: calls.append(a) or levels(*a))
    assert main(["zeeman", "--b-points", "1000"]) == 0
    assert len(calls) == 1  # the report's own levels
    assert main(["zeeman", "--b-points", "3", "--csv", str(tmp_path / "levels.csv")]) == 0
    assert len(calls) == 1 + 1 + 3
    capsys.readouterr()


def test_zeeman_csv_ramp(capsys, tmp_path):
    path = tmp_path / "levels.csv"
    code = main(["zeeman", "--b-max", "1.0", "--b-points", "3", "--csv", str(path)])
    capsys.readouterr()
    assert code == 0
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["B", "m_l", "m_s", "energy"]
    assert len(rows) == 1 + 3 * 6
    # six levels per field value, energies linear in B
    last = [r for r in rows[1:] if float(r[0]) == 1.0]
    energies = sorted(float(r[3]) for r in last)
    assert energies == [-2.0, -1.0, 0.0, 0.0, 1.0, 2.0]


def test_config_file_and_flag_precedence(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 11\nensemble = 150\n# comment line\npairs = 5\n")
    argv = ["phases", "--config", str(cfg), "--pairs", "2"]
    _, body = run(capsys, argv)
    assert body["config"] == {"n_max": 1, "ensemble": 150, "pairs": 2, "seed": 11, "tolerances": {}}
    assert body["details"]["ensemble"] == 150
    assert len(body["details"]["pairs"]) == 2
    _, flagged = run(capsys, [*argv, "--seed", "4"])
    assert flagged["config"]["seed"] == 4

    cfg.write_text("n_cut = 3\ntol.sum_rule = 1e-10\n")
    _, body = run(capsys, ["sum-rule", "--config", str(cfg), "--n-cut", "2"])
    assert body["config"]["n_cut"] == body["details"]["n_cut"] == 2
    assert body["config"]["tolerances"] == {"sum_rule": 1e-10}
    assert {c["tolerance"] for c in body["checks"] if c["tolerance"]} == {1e-10}


def test_unknown_config_key_exits_two(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("boxes = 3\n")
    assert main(["totals", "--config", str(cfg)]) == 2
    assert "boxes" in capsys.readouterr().err


def _subparser(command):
    sub = next(a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


def _settable(command) -> dict:
    """dest -> flag of each option of `command` that sets a run value."""
    skip = {"help", "config", "report", "csv", "tol"}
    actions = _subparser(command)._actions
    return {a.dest: a.option_strings[0] for a in actions if a.dest not in skip}


def test_parser_offers_exactly_the_options_each_command_reads():
    for command, dests in COMMAND_OPTIONS.items():
        assert list(_settable(command)) == dests
    assert sum(len(_settable(command)) for command in ALL_COMMANDS) == 56


@pytest.mark.parametrize("command", ALL_COMMANDS)
def test_options_a_command_does_not_read_exit_two(capsys, tmp_path, command):
    flags = {flag for c in ALL_COMMANDS for flag in _settable(c).values()} | {"--csv"}
    dests = {dest for c in ALL_COMMANDS for dest in _settable(c)}
    own = _subparser(command)._option_string_actions
    for flag in sorted(flags - set(own)):
        assert main([command, flag, "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag} 1" in captured.err
    cfg = tmp_path / "run.cfg"
    for key in sorted(dests - set(COMMAND_OPTIONS[command])):
        cfg.write_text(f"{key} = 1\n")
        assert main([command, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{command} reads no config key {key!r}" in captured.err


# two valid values of each option, the first not its default
OTHER_VALUES = {
    "L": ("2.0", "3.0"),
    "n_max": ("2", "3"),
    "grid": ("16", "64"),
    "ensemble": ("20", "30"),
    "pairs": ("2", "3"),
    "seed": ("1", "2"),
    "hbar": ("2.0", "3.0"),
    "c": ("2.0", "3.0"),
    "m": ("2.0", "3.0"),
    "mu0": ("2.0", "3.0"),
    "n": ("1,0,0", "0,2,0"),
    ("antiphase", "n"): ("4", "5"),
    "gamma": ("-1", "1"),
    "points": ("5", "6"),
    ("sz", "points"): ("32", "64"),
    "time": ("0.5", "1.5"),
    "dims": ("3", "2"),
    "n_cut": ("3", "4"),
    "omega0": ("2.0", "3.0"),
    "lz": ("1", "1/2"),
    "field": ("2.0", "3.0"),
    "b_max": ("1.0", "3.0"),
    "b_points": ("3", "4"),
    "values": ("1/2", "3/2,1/2"),
    "winding": ("-1/2", "3/2"),
    "spin_a": ("3/2", "1"),
    "spin_b": ("3/2", "1"),
    "ordering": ("tie", "phi1_greater"),
    "labels": ("a:1/2", "b:1/2,c:3/2"),
}


@pytest.mark.parametrize("command", ALL_COMMANDS)
def test_every_option_is_set_by_its_key_and_overridden_by_its_flag(tmp_path, command):
    cfg = tmp_path / "run.cfg"
    default = resolved([command])
    for dest, flag in _settable(command).items():
        in_file, on_line = OTHER_VALUES.get((command, dest), OTHER_VALUES[dest])
        cfg.write_text(f"{dest} = {in_file}\n")
        from_file = getattr(resolved([command, "--config", str(cfg)]), dest)
        flagged = getattr(resolved([command, "--config", str(cfg), f"{flag}={on_line}"]), dest)
        assert from_file == getattr(resolved([command, f"{flag}={in_file}"]), dest)
        assert from_file != getattr(default, dest)
        assert flagged == getattr(resolved([command, f"{flag}={on_line}"]), dest)
        assert flagged != from_file


@pytest.mark.parametrize("box", ["1e-3", "1", "1e3"])
def test_field_sample_tolerances_hold_at_every_box(capsys, monkeypatch, box):
    # the fields scale as sqrt(hbar omega / V); each error is taken relative
    argv = ["field-sample", "--box", box, "--points", "16"]
    code, body = run(capsys, argv)
    assert code == 0
    sample_fields = cli.sample_fields

    def b_off_by_1e9(*args, **kwargs):
        A, E, B = sample_fields(*args, **kwargs)
        return A, E, B * (1 + 1e-9)

    monkeypatch.setattr(cli, "sample_fields", b_off_by_1e9)
    code, body = run(capsys, argv)
    assert code == 1
    assert [c["name"] for c in body["checks"] if not c["pass"]] == ["b_tracks_a"]


def _perfbench_module(monkeypatch, name):
    """perfbench/<name>.py, loaded on its own, without perfbench/run.py."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the defining module up by name
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_argv_parse(monkeypatch):
    # parse only: a renamed or removed flag fails here, not in a benchmark run
    workloads = _perfbench_module(monkeypatch, "workloads")
    parser = cli._parser()
    cases = [
        case
        for workload in workloads.WORKLOADS
        for seed in range(1, 11)
        for case in workloads.build_mix(workload, seed)
    ]
    assert cases
    for case in cases:
        assert parser.parse_args(case.argv).command == case.command


def test_benchmark_tracer_sees_one_span_per_table_and_quantity(capsys, monkeypatch):
    # a renamed traced function or table field fails here, not in a traced run
    spans = _perfbench_module(monkeypatch, "spans")
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert main(["sum-rule", "--dims", "2,3", "--n-cut", "3"]) == 0
        assert main(["angular-momentum", "--n-cut", "3"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    # uninstall put the originals back
    assert not hasattr(cli.trk_sum_rule, "__wrapped__")
    traced, counts = tracer.take()
    totals = spans.aggregate(traced)
    assert counts["oscillator.table_states"] == 10 + 20 + 10
    assert totals["oscillator.build_oscillator_table.calls"] == 3
    # per sum-rule table: the complete rows, then one top-shell row
    assert totals["spectral.trk_sum_rule.calls"] == 2 * 2
    assert totals["spectral.lz_expectation.calls"] == 2  # polarized, direct
    assert totals["spectral.polarized_momenta.calls"] == 1


def test_benchmark_cases_pass_their_oracle(capsys, monkeypatch):
    # every seed-1 case of every workload exits 0 and satisfies the
    # benchmark's report oracle, so its pass_ratio stays 1
    workloads = _perfbench_module(monkeypatch, "workloads")
    oracle = _perfbench_module(monkeypatch, "oracle")
    _perfbench_module(monkeypatch, "spans").check_span_arithmetic()
    failed = []
    for workload in workloads.WORKLOADS:
        for case in workloads.build_mix(workload, 1):
            code = main(list(case.argv))
            verdict = oracle.judge(case, code, capsys.readouterr().out)
            if verdict.failed:
                failed.append((case.label, code, verdict.problems))
    assert failed == []


def test_malformed_tol_exits_two(capsys):
    assert main(["totals", "--tol", "sum_rule"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv,config,declared",
    [
        *(([command, "--tol", "typo=1"], None, None) for command in ALL_COMMANDS),
        (["phases"], "tol.sum_rule = 1e-10", "declared: none"),
        (["sum-rule", "--tol", "routes_agree=1"], None, "declared: sum_rule=1e-12"),
        (
            ["angular-momentum"],
            "tol.sum_rule = 1",
            "declared: routes_agree=1e-12, operator_eigenvalue=1e-12",
        ),
    ],
)
def test_undeclared_tolerance_exits_two(capsys, tmp_path, argv, config, declared):
    if config is not None:
        path = tmp_path / "run.cfg"
        path.write_text(config + "\n")
        argv = [*argv, "--config", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{argv[0]} declares no tolerance" in captured.err
    assert "declared: " in captured.err
    if declared is not None:
        assert declared in captured.err


@pytest.mark.parametrize(
    "command,listed",
    [
        ("angular-momentum", "routes_agree=1e-12, operator_eigenvalue=1e-12"),
        ("mode-observables", "observables=1e-09, phase_independence=1e-12"),
        ("sz", "sz_agreement=1e-08"),
        ("slater", "none"),
    ],
)
def test_help_lists_declared_tolerances(capsys, command, listed):
    assert main([command, "--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())
    assert f"tolerances (--tol NAME=VALUE): {listed}" in out


def test_unexpected_exception_exits_three(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "trk_sum_rule", broken)
    assert main(["sum-rule", "--n-cut", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: RuntimeError: boom\n")


def test_tol_override_echoed_and_applied(capsys):
    _, body = run(capsys, ["sz", "--tol", "sz_agreement=1e-6"])
    assert body["config"]["tolerances"] == {"sz_agreement": 1e-6}
    numeric = next(c for c in body["checks"] if c["name"] == "numeric_matches_symbolic")
    assert numeric["tolerance"] == 1e-6


def test_exchange_report_embeds_derivation(capsys):
    _, body = run(capsys, ["exchange-derive"])
    derivation = body["details"]["derivation"]
    assert derivation["value"] == "1*pi"
    assert [s["operation"] for s in derivation["trace"]] == [
        "construct",
        "exchange_states",
        "exchange_particles",
        "solve_exchange_phase",
        "apply_exchange_phase",
    ]


@pytest.mark.parametrize("ordering", ["phi2_greater", "phi1_greater", "tie"])
def test_exchange_integer_spins_pass(capsys, ordering):
    code, body = run(
        capsys,
        ["exchange-derive", "--spin-a", "1", "--spin-b", "1", "--ordering", ordering],
    )
    assert code == 0
    swap = next(c for c in body["checks"] if c["name"] == "swap_factor_matches_exchange_phase")
    assert swap["expected"] == swap["actual"] == "0"


def test_exchange_mixed_spins_report_failure(capsys):
    code, body = run(capsys, ["exchange-derive", "--spin-a", "1/2", "--spin-b", "1"])
    assert code == 1
    assert body["checks"][0]["name"] == "derivation_consistent"
    assert body["checks"][0]["pass"] is False


def test_antiphase_matches_flag(capsys):
    code, body = run(capsys, ["antiphase", "--n", "2"])
    assert code == 0
    assert body["details"]["witness"] == ["0*pi", "1*pi"]
    code, body = run(capsys, ["antiphase", "--n", "6"])
    assert code == 0
    feasible = next(c for c in body["checks"] if "feasible" in c["name"])
    assert feasible["actual"] is False


def test_dichotomy_echoes_input(capsys):
    _, body = run(capsys, ["dichotomy", "--values", "3/2,1/2"])
    echoed = body["details"]["input"]
    assert echoed["values"] == ["3/2", "1/2"]
    assert echoed["feasible"] is True
    assert echoed["canonical"] == ["-1/2", "1/2"]


def test_slater_rejects_oversized_input(capsys):
    labels = ",".join(f"s{i}:1/2" for i in range(9))
    assert main(["slater", "--labels", labels]) == 2
    capsys.readouterr()


def test_slater_eight_labels_within_ceiling(capsys):
    labels = ",".join(f"s{7 - i}:{'1/2' if i % 2 else '-3/2'}" for i in range(8))
    start = time.perf_counter()
    code, body = run(capsys, ["slater", "--labels", labels])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert body["details"] == {"n": 8, "distinct": True}
    counted = next(c for c in body["checks"] if c["name"] == "term_count")
    assert counted["actual"] == math.factorial(8)
    assert elapsed < 15.0


def test_slater_detects_a_wrong_sign(capsys, monkeypatch):
    real = cli.antisymmetrize

    def one_sign_flipped(labels):
        state = real(labels)
        if not state.terms:
            return state
        terms = list(state.terms)
        coeff, ket = terms[len(terms) // 2]
        terms[len(terms) // 2] = (coeff.mul_phase(MINUS_ONE), ket)
        return type(state)(terms=tuple(terms), n=state.n)

    monkeypatch.setattr(cli, "antisymmetrize", one_sign_flipped)
    code, body = run(capsys, ["slater", "--labels", "b:1/2,a:-1/2,c:3/2,d:1/2"])
    assert code == 1
    flips = next(c for c in body["checks"] if c["name"] == "transpositions_flip_sign")
    assert flips["actual"] is False
    assert not flips["pass"]


NON_FINITE_FLAGS = [
    ("totals", "--box"),
    ("angular-momentum", "--hbar"),
    ("mode-observables", "--c"),
    ("sum-rule", "--m"),
    ("zeeman", "--mu0"),
    ("sum-rule", "--omega0"),
    ("angular-momentum", "--omega0"),
    ("zeeman", "--field"),
    ("zeeman", "--b-max"),
    ("field-sample", "--time"),
]


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("command,flag", NON_FINITE_FLAGS)
def test_non_finite_flag_exits_two(capsys, command, flag, value):
    assert main([command, f"{flag}={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


@pytest.mark.parametrize("line", ["L = inf", "hbar = nan", "mu0 = -inf", "tol.sum_rule = nan"])
def test_non_finite_config_value_exits_two(capsys, tmp_path, line):
    # each key goes to a command that reads it
    argv = {"L = inf": ["totals"], "mu0 = -inf": ["zeeman"]}.get(line, ["sum-rule", "--n-cut", "2"])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert main([*argv, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


@pytest.mark.parametrize(
    "argv,line",
    [(["sum-rule", "--n-cut", "2", "--tol", "sum_rule=-1"], None), (["sz"], "tol.sz_agreement = -1e-3")],
)
def test_negative_tolerance_exits_two(capsys, tmp_path, argv, line):
    # a negative bound would fail its checks: exit 1 for what is bad input
    if line:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        argv = [*argv, "--config", str(cfg)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "at least 0" in captured.err


def test_zero_tolerance_is_accepted(capsys):
    code, body = run(capsys, ["sum-rule", "--n-cut", "2", "--tol", "sum_rule=0"])
    assert code in (0, 1)
    assert body["config"]["tolerances"] == {"sum_rule": 0.0}


def test_constants_take_effect_without_a_switch(capsys):
    code, body = run(capsys, ["sum-rule", "--n-cut", "2", "--hbar", "2"])
    assert code == 0
    assert body["config"]["hbar"] == 2.0
    assert {d["target"] for d in body["details"]["dims"].values()} == {2.0}


@pytest.mark.parametrize("flag", ["--box", "--hbar", "--c", "--m", "--mu0", "--omega0"])
def test_underflowing_flag_exits_two(capsys, flag):
    # 1e-400 parses to 0.0, which each of these flags' types refuses; each
    # flag goes to a command that reads it
    command = {"--box": "totals", "--c": "totals", "--mu0": "zeeman"}.get(flag, "sum-rule")
    assert main([command, f"{flag}=1e-400"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "positive" in captured.err


@pytest.mark.parametrize(
    "key,flag,value",
    [
        ("L", "--box", "0"),
        ("n_max", "--n-max", "0"),
        ("ensemble", "--ensemble", "0"),
        ("pairs", "--pairs", "-1"),
        ("seed", "--seed", "x"),
        ("seed", "--seed", "-1"),
        ("dims", "--dims", "3,3"),
    ],
)
def test_config_values_are_validated_like_flags(capsys, tmp_path, key, flag, value):
    command = {"ensemble": "phases", "pairs": "phases", "dims": "sum-rule"}.get(key, "totals")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    for argv in ([command, "--config", str(cfg)], [command, f"{flag}={value}"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert repr(value) in captured.err


@pytest.mark.parametrize(
    "runner,args",
    [
        (_run_sum_rule, ["sum-rule", "--dims", "2,3", "--n-cut", "3"]),
        (_run_angular_momentum, ["angular-momentum", "--dims", "2", "--n-cut", "3"]),
    ],
)
def test_nan_errors_fail_their_checks(monkeypatch, runner, args):
    # the parser and the scale checks refuse constants that overflow; past
    # them, a table of NaN elements makes every per-state error NaN
    def nan_table(*a, **k):
        table = build_oscillator_table(*a, **k)
        return dataclasses.replace(table, x=table.x * math.nan, y=table.y * math.nan)

    monkeypatch.setattr(cli, "build_oscillator_table", nan_table)
    checks, _, _ = runner(resolved(args))
    numeric = [c for c in checks if c.tolerance > 0]
    assert numeric
    for check in numeric:
        assert math.isnan(check.actual)
        assert not check.passed


def test_oversized_table_exits_two_at_once(capsys):
    start = time.perf_counter()
    assert main(["sum-rule", "--dims", "3", "--n-cut", "300"]) == 2
    assert time.perf_counter() - start < 1.0
    assert "GiB" in capsys.readouterr().err


def test_sum_rule_refuses_every_size_before_any_table(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "build_oscillator_table", lambda *a, **k: built.append(a))
    assert main(["sum-rule", "--dims", "2,3", "--n-cut", "300"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "3-d table" in captured.err
    assert built == []


def test_oversized_sz_grid_exits_two_before_allocating(capsys):
    # 2e7 points x 72 bytes
    tracemalloc.start()
    try:
        assert main(["sz", "--points", "20000000"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "1.3 GiB" in captured.err
    assert peak < 1 << 20
    # below the stencil's floor the flag itself is refused
    assert main(["sz", "--points", "15"]) == 2
    assert "an integer of at least 16" in capsys.readouterr().err


def _never_called(*args, **kwargs):
    raise AssertionError("work started before the size check")


@pytest.mark.parametrize(
    "argv,patched,estimate",
    [
        # 3e6 realizations x 52 modes x 8 bytes
        (["phases", "--ensemble", "3000000"], "sample_zeta_ensemble", "1.2 GiB"),
        # 2e7 points x 445 bytes: the fields of a field-sample run and its checks
        (["field-sample", "--points", "20000000"], "sample_realization", "8.3 GiB"),
        # 8388608 lattice phases x 232 bytes
        (["mode-observables", "--n", "0,0,1", "--grid", "8388608"], "mode_observables", "1.8 GiB"),
        # 3e6 points x 445 bytes, although one field set alone would fit
        (["field-sample", "--points", "3000000"], "sample_realization", "1.2 GiB"),
        # 1e7 pairs x 1.4 KB, checked before the ensemble is drawn
        (["phases", "--pairs", "10000000"], "sample_zeta_ensemble", "13.0 GiB"),
        # each array fits, but 101 pair means over 1e6 realizations pass the
        # work budget of 1e8 pair rows
        (
            ["phases", "--ensemble", "1000000", "--pairs", "101"],
            "sample_zeta_ensemble",
            "101000000 pair rows",
        ),
    ],
)
def test_oversized_modes_runs_exit_two_before_any_work(capsys, monkeypatch, argv, patched, estimate):
    monkeypatch.setattr(cli, patched, _never_called)
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert estimate in captured.err


@pytest.mark.parametrize(
    "argv,owner,patched",
    [
        (["mode-observables", "--n", "0,0,1", "--box", "1e300"], modes, "sample_fields"),
        (["mode-observables", "--n", "0,0,1", "--box", "1e-300"], modes, "sample_fields"),
        (["field-sample", "--box", "1e300", "--points", "4"], cli, "sample_realization"),
        (["field-sample", "--box", "1e-300", "--points", "4"], cli, "sample_realization"),
        (["totals", "--box", "1e300"], cli, "sample_realization"),
        (["sum-rule", "--n-cut", "2", "--hbar", "1e300", "--m", "1e-300"], oscillator, "_state_labels"),
        (["angular-momentum", "--n-cut", "3", "--omega0", "1e-320"], oscillator, "_state_labels"),
        # the quadrature squares the fields, so hbar omega / V must fit as well
        (["mode-observables", "--box", "1e100"], modes, "sample_fields"),
        (["mode-observables", "--box", "1e-100"], modes, "sample_fields"),
        (["mode-observables", "--hbar", "1e300", "--c", "1e10"], modes, "sample_fields"),
    ],
)
def test_out_of_range_scales_exit_two_before_any_work(capsys, monkeypatch, argv, owner, patched):
    # each value is finite on its own; a derived scale overflows or underflows
    monkeypatch.setattr(owner, patched, _never_called)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "outside the range of normal floats" in captured.err
