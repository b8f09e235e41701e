"""Command-line surface: report schema, exit codes, config handling, CSV."""

import argparse
import csv
import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zpfspin import cli, errors, exchange, modes
from zpfspin.cli import _run_angular_momentum, _run_sum_rule, main
from zpfspin.exchange import antisymmetrize, derive_antisymmetry, negate
from zpfspin.oscillator import build_oscillator_table
from zpfspin.phase_algebra import MINUS_ONE

# the options each command reads, in the order its report's config echoes them
COMMAND_OPTIONS = {
    "mode-observables": ["n", "gamma", "grid", "seed"],
    "field-sample": ["points", "time", "n_max", "seed"],
    "totals": ["n_max", "seed"],
    "phases": ["n_max", "ensemble", "pairs", "seed"],
    "sum-rule": ["dims", "n_cut", "seed"],
    "angular-momentum": ["dims", "n_cut", "seed"],
    "zeeman": ["b_max", "b_points", "seed"],
    "dichotomy": ["seed"],
    "sz": ["winding", "points", "seed"],
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
        assert list(check) == ["name", "expected", "actual", "tolerance", "pass"]
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
    code = main(["antiphase", "--n", "2", "--report", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert path.read_text() == out


@pytest.mark.parametrize(
    "argv,option",
    [
        (["antiphase", "--n", "2"], "--report"),
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
    [(["antiphase", "--n", "2"], ANTIPHASE_REPORT)],
)
def test_exact_report_text_is_pinned(capsys, argv, expected):
    # key order, indentation and the config echo, all but the wall time
    assert main(argv) == 0
    text, sep, wall = capsys.readouterr().out.rpartition(',\n  "wall_time_s": ')
    assert sep
    assert float(wall.removesuffix("\n}\n")) >= 0.0
    assert text == expected


def test_readme_command_table_names_every_command():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| command | what it verifies |\n| --- | --- |\n", 1)[1]
    rows = table.split("\n\n", 1)[0].splitlines()
    assert [re.match(r"\| `([^`]+)` \|", row).group(1) for row in rows] == list(cli._EXPERIMENTS)


@pytest.mark.parametrize("argv", [["antiphase", "--n", "2"], ["exchange-derive"]])
def test_closed_stdout_exits_two(argv):
    # a pipe whose read end is closed refuses every write at once
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "zpfspin.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 2
    assert done.stderr.startswith("error: cannot write output: ")
    assert "Traceback" not in done.stderr


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


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["nope"],
        ["sum-rule", "-h"],
        ["sum-rule", "--bogus=1"],
        ["sz", "--m", "1"],
        ["slater", "--labels"],
        ["sum-rule", "--n-cut", "0"],
    ],
)
def test_dispatch_keeps_the_parsers_text(capsys, argv):
    # main parses with the command's own parser; what the whole parser
    # prints and exits with stays the same, its usage line included
    with pytest.raises(SystemExit) as info:
        cli._parser().parse_args(argv)
    expected = (info.value.code, *capsys.readouterr())
    assert (main(argv), *capsys.readouterr()) == expected


def _report_bodies(monkeypatch, capsys, argvs) -> list:
    """The body each argv's run hands to the report writer."""
    bodies, write = [], cli._json_text

    def record(value, indent="\n"):
        if indent == "\n":
            bodies.append(value)
        return write(value, indent)

    monkeypatch.setattr(cli, "_json_text", record)
    for argv in argvs:
        assert main(argv) == 0, argv
    capsys.readouterr()
    monkeypatch.undo()
    assert len(bodies) == len(argvs)
    return bodies


def _dumps(body) -> str:
    return json.dumps(body, indent=2, default=cli._json_default)


def test_report_writer_matches_json_dumps_on_the_reports(capsys, monkeypatch):
    # each command's default and the benchmark's seed-1 argv
    workloads = _perfbench_module(monkeypatch, "workloads")
    argvs = [[command] for command in ALL_COMMANDS]
    argvs += [list(case.argv) for name in workloads.WORKLOADS for case in workloads.build_mix(name, 1)]
    for body in _report_bodies(monkeypatch, capsys, argvs):
        assert cli._json_text(body) == _dumps(body)


_json_floats = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e-320])
_json_leaves = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | _json_floats
    # non-ASCII text, quotes, backslashes and control characters
    | st.text(st.characters(codec="utf-8") | st.sampled_from('"\\\n\t\x00\x1f\u2028\U0001f600'))
    | _json_floats.map(np.float64)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.booleans().map(np.bool_)
    | _json_floats.map(np.array)
    | st.lists(st.lists(_json_floats, min_size=2, max_size=2), min_size=1, max_size=3).map(np.array)
    | st.fractions()
)
_json_bodies = st.recursive(
    _json_leaves,
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.dictionaries(st.text(), children),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_json_bodies)
def test_report_writer_matches_json_dumps(body):
    assert cli._json_text(body) == _dumps(body)


def test_bad_flag_value_exits_two(capsys):
    assert main(["sz", "--points", "abc"]) == 2
    capsys.readouterr()


def test_unresolvable_grid_exits_two(capsys):
    # below the quadrature floor for this mode
    assert main(["mode-observables", "--n", "0,0,1", "--grid", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [["--grid", "abc"], ["--grid", "0"], ["--grid=-8"], "grid = -8"])
def test_grid_must_be_a_positive_integer(capsys, tmp_path, argv):
    # a negative grid would reach quadrature_cost as a negative byte count
    if isinstance(argv, str):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(argv + "\n")
        argv = ["--config", str(cfg)]
    assert main(["mode-observables", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected an integer of at least 1" in captured.err


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


def test_field_sample_realization_fields_built_only_for_csv(capsys, monkeypatch, tmp_path):
    seen = []
    fields = cli.sample_fields
    monkeypatch.setattr(
        cli, "sample_fields", lambda real, *a: seen.append(len(real.modes)) or fields(real, *a)
    )
    assert main(["field-sample", "--n-max", "2", "--points", "8"]) == 0
    # the checks read one mode, the next one and the two together
    assert seen == [1, 1, 2]
    path = tmp_path / "fields.csv"
    assert main(["field-sample", "--n-max", "2", "--points", "8", "--csv", str(path)]) == 0
    assert seen[3:] == [1, 1, 2, 248]
    capsys.readouterr()


def test_zeeman_ramp_built_only_for_csv(capsys, monkeypatch, tmp_path):
    calls = []
    levels = cli.zeeman_levels
    monkeypatch.setattr(cli, "zeeman_levels", lambda *a: calls.append(a) or levels(*a))
    assert main(["zeeman", "--b-points", "1000"]) == 0
    assert len(calls) == 1  # the report's own levels
    assert main(["zeeman", "--b-points", "3", "--csv", str(tmp_path / "levels.csv")]) == 0
    # the report's levels again, and once more for the whole ramp
    assert len(calls) == 1 + 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "mutate,failing",
    [
        (lambda table: dataclasses.replace(table, x=table.x * 1.01), ["levels_from_channels", "spin_gap_doubled"]),
        (lambda table: dataclasses.replace(table, y=-table.y), ["levels_from_channels"]),
    ],
    ids=["x_scaled", "y_negated"],
)
def test_zeeman_levels_come_from_the_table(capsys, monkeypatch, mutate, failing):
    # the six levels are measured from the table's polarized channels, so a
    # wrong element shows in the checks, not only in the formula
    monkeypatch.setattr(cli, "build_oscillator_table", lambda *a: mutate(build_oscillator_table(*a)))
    code, body = run(capsys, ["zeeman"])
    assert code == 1
    assert [c["name"] for c in body["checks"] if not c["pass"]] == failing


@pytest.mark.parametrize(
    "mutate,failing",
    [
        (
            lambda m_plus, m_minus: (1.01 * m_plus, 1.01 * m_minus),
            ["routes_agree", "operator_eigenvalue", "channel_gap_is_hbar"],
        ),
        (
            lambda m_plus, m_minus: (m_plus, m_minus + 1e-9),
            ["routes_agree", "operator_eigenvalue", "channel_gap_is_hbar"],
        ),
        (lambda m_plus, m_minus: (m_minus, m_plus), ["channel_gap_is_hbar"]),
    ],
    ids=["both_scaled", "minus_shifted", "swapped"],
)
def test_angular_momentum_pins_both_channels(capsys, monkeypatch, mutate, failing):
    # the channel sum is checked against the operator route and m_l hbar,
    # the channel gap against hbar; together they pin each channel
    real = cli.polarized_momenta
    monkeypatch.setattr(cli, "polarized_momenta", lambda *a: mutate(*real(*a)))
    code, body = run(capsys, ["angular-momentum"])
    assert code == 1
    assert [c["name"] for c in body["checks"] if not c["pass"]] == failing


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
    assert sum(len(_settable(command)) for command in ALL_COMMANDS) == 35


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


# the unit options each command read before it reported in natural units,
# by config key
REMOVED_OPTIONS = {
    "mode-observables": {"--box": "L", "--hbar": "hbar", "--c": "c"},
    "field-sample": {"--box": "L", "--hbar": "hbar", "--c": "c"},
    "totals": {"--box": "L", "--hbar": "hbar", "--c": "c"},
    "sum-rule": {"--hbar": "hbar", "--m": "m", "--omega0": "omega0"},
    "angular-momentum": {"--hbar": "hbar", "--m": "m", "--omega0": "omega0"},
    "zeeman": {"--mu0": "mu0", "--field": "field"},
    "sz": {"--hbar": "hbar"},
}


@pytest.mark.parametrize("command", list(REMOVED_OPTIONS))
def test_removed_unit_options_exit_two(capsys, tmp_path, command):
    cfg = tmp_path / "run.cfg"
    for flag, key in REMOVED_OPTIONS[command].items():
        assert main([command, flag, "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag} 2" in captured.err
        cfg.write_text(f"{key} = 2\n")
        assert main([command, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{command} reads no config key {key!r}" in captured.err


# two valid values of each option, the first not its default
OTHER_VALUES = {
    "n_max": ("2", "3"),
    "grid": ("16", "64"),
    "ensemble": ("20", "30"),
    "pairs": ("2", "3"),
    "seed": ("1", "2"),
    "n": ("1,0,0", "0,2,0"),
    ("antiphase", "n"): ("4", "5"),
    "gamma": ("-1", "1"),
    "points": ("5", "6"),
    ("sz", "points"): ("512", "2048"),
    "time": ("0.5", "1.5"),
    "dims": ("3", "2"),
    "n_cut": ("3", "4"),
    "b_max": ("1.0", "3.0"),
    "b_points": ("3", "4"),
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
    assert totals["spectral.lz_expectation.calls"] == 1
    assert totals["spectral.polarized_momenta.calls"] == 1


def test_benchmark_tracer_counts_the_modes_layer(capsys, monkeypatch):
    # a renamed traced function or parameter of the modes layer fails here
    spans = _perfbench_module(monkeypatch, "spans")
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert main(["field-sample", "--n-max", "1", "--points", "4"]) == 0
        assert main(["totals", "--n-max", "1"]) == 0
        assert main(["phases", "--n-max", "1", "--ensemble", "10", "--pairs", "2"]) == 0
        assert main(["mode-observables", "--grid", "8"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert not hasattr(modes.sample_fields, "__wrapped__")
    traced, counts = tracer.take()
    totals = spans.aggregate(traced)
    # field-sample without --csv: rows [:1], [1:2] and [:2], at 4 points;
    # mode-observables: one mode at grid / gcd(0, 0, 1, 8) = 8 phases, twice
    assert counts["modes.field_mode_points"] == (1 + 1 + 2) * 4 + 2 * 8
    assert counts["modes.ensemble_rows"] == 10
    assert counts["modes.quadrature_points"] == 2 * 8**3
    # realizations are drawn as arrays: only mode-observables builds its two
    # modes one by one, and each realization_totals is one analytic call
    assert totals["modes.make_mode.calls"] == 2
    assert totals["modes.sample_realization.calls"] == 2
    assert totals["modes.realization_totals.calls"] == 2
    assert totals["modes.analytic_mode_observables.calls"] == 2 + 1


def test_declared_costs_match_the_traced_work(capsys, monkeypatch, tmp_path):
    # the cost main refuses from counts the work the run then does: every
    # benchmark argv at seeds 1-3, and one field-sample run with --csv
    workloads = _perfbench_module(monkeypatch, "workloads")
    spans = _perfbench_module(monkeypatch, "spans")
    argvs = [
        list(case.argv)
        for workload in workloads.WORKLOADS
        for seed in range(1, 4)
        for case in workloads.build_mix(workload, seed)
    ]
    csv_path = str(tmp_path / "out.csv")
    argvs.append(["field-sample", "--n-max", "2", "--points", "16", "--csv", csv_path])
    compared = []
    tracer = spans.Tracer()
    tracer.install()
    try:
        for argv in argvs:
            cfg = resolved(argv)
            declared = dict.fromkeys(errors.LIMITS, 0)
            for _, unit, amount in cli._EXPERIMENTS[cfg.command].cost(cfg):
                declared[unit] += amount
            main(argv)
            traced, counts = tracer.take()
            if declared["mode evaluations"]:
                assert declared["mode evaluations"] == counts["modes.field_mode_points"], argv
                compared.append(("mode evaluations", bool(cfg.csv)))
            if declared["zeta draws"]:
                rows = counts["modes.ensemble_rows"]
                assert declared["zeta draws"] == rows * modes.mode_count(cfg.n_max), argv
                compared.append(("zeta draws", False))
            if cfg.command in ("sum-rule", "angular-momentum"):
                # the declared lines are the tables alone, 440 bytes a state
                # and 192 KiB a table
                tables = spans.aggregate(traced)["oscillator.build_oscillator_table.calls"]
                states = counts["oscillator.table_states"]
                assert declared["bytes"] == 440 * states + (192 << 10) * tables, argv
                compared.append(("bytes", False))
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert set(compared) == {
        ("mode evaluations", False),
        ("mode evaluations", True),
        ("zeta draws", False),
        ("bytes", False),
    }


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
        # a check name is not a tolerance name: zeeman_gap bounds this check
        (["zeeman", "--tol", "levels_from_channels=1"], None, None),
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
    # no input could change a verdict, so the command reads none: it echoes
    # its seed and its fixed pair, whose feasibility the benchmark's oracle
    # reads, and refuses --values
    _, body = run(capsys, ["dichotomy"])
    assert body["config"] == {"seed": 7, "tolerances": {}}
    assert body["details"]["input"] == {"values": ["1/2", "-1/2"], "feasible": True, "sign_opposed": True}
    assert main(["dichotomy", "--values", "1/2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --values 1/2" in captured.err


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


def _all_pairs_flip_sign(labels, state) -> bool:
    """Test-local oracle: relabel by every pair (i, j), not only adjacent ones."""
    index = {label: i for i, label in enumerate(labels)}
    keys = [tuple(map(index.__getitem__, ket)) for _, ket in state.terms]
    # one object per coefficient value, so the dicts compare by identity
    canonical: dict = {}
    coeffs = [canonical.setdefault(coeff, coeff) for coeff, _ in state.terms]
    want = dict(zip(keys, (canonical.setdefault(coeff, coeff) for coeff, _ in negate(state).terms)))
    for i, j in combinations(range(len(labels)), 2):
        swap = list(range(len(labels)))
        swap[i], swap[j] = j, i
        if dict(zip((tuple(map(swap.__getitem__, key)) for key in keys), coeffs)) != want:
            return False
    return True


def _negate_one(terms, labels):
    coeff, ket = terms[len(terms) // 2]
    terms[len(terms) // 2] = (coeff.mul_phase(MINUS_ONE), ket)


def _swap_two_kets(terms, labels):
    # two terms of opposite sign trade kets; at n = 2 that is the whole
    # state negated, which is still antisymmetric
    k = next(k for k, (coeff, _) in enumerate(terms) if coeff != terms[0][0])
    (c0, ket0), (ck, ketk) = terms[0], terms[k]
    terms[0], terms[k] = (c0, ketk), (ck, ket0)


def _drop_one(terms, labels):
    del terms[len(terms) // 2]


def _all_plus(terms, labels):
    plus = next(coeff for coeff, ket in terms if ket == tuple(labels))
    terms[:] = [(plus, ket) for _, ket in terms]


@pytest.mark.parametrize("mutate", [None, _negate_one, _swap_two_kets, _drop_one, _all_plus])
@pytest.mark.parametrize("n", range(2, 8))
def test_adjacent_swaps_decide_as_all_pairs(n, mutate):
    # labels out of sorted order, so the sorting permutation's sign matters
    labels = [(f"o{n - k}", Fraction(1 if k % 2 else -1, 2)) for k in range(n)]
    state = antisymmetrize(labels)
    if mutate is not None:
        terms = list(state.terms)
        mutate(terms, labels)
        state = type(state)(terms=tuple(terms), n=n)
    flips = cli._transpositions_flip_sign(labels, state)
    assert flips == _all_pairs_flip_sign(labels, state)
    assert flips is (mutate is None or (mutate is _swap_two_kets and n == 2))


def test_slater_negates_its_coefficients_not_its_expansion(capsys, monkeypatch):
    # the 720 terms share two coefficients: the sign check negates those
    monkeypatch.setattr(exchange, "negate", _never_called)
    monkeypatch.setattr(cli, "negate", _never_called, raising=False)
    code, body = run(capsys, ["slater", "--labels", "a:1/2,b:-1/2,c:1/2,d:-1/2,e:3/2,f:-3/2"])
    assert code == 0
    assert all(check["pass"] for check in body["checks"])


SPIN_PAIRS = [("1/2", "1/2"), ("1", "1"), ("1", "1/2")]


@pytest.mark.parametrize("spins", SPIN_PAIRS, ids=["-".join(p) for p in SPIN_PAIRS])
@pytest.mark.parametrize("ordering", ["phi2_greater", "phi1_greater", "tie"])
def test_exchange_derive_derives_once(capsys, monkeypatch, ordering, spins):
    calls = []
    real = cli.derive_antisymmetry
    monkeypatch.setattr(cli, "derive_antisymmetry", lambda *a, **k: calls.append(k) or real(*a, **k))
    argv = ["exchange-derive", "--spin-a", spins[0], "--spin-b", spins[1], "--ordering", ordering]
    code, body = run(capsys, argv)
    assert len(calls) == 1
    # a spin 1 with a spin 1/2 admits no exchange phase, and reports no probe
    assert code == (1 if spins == ("1", "1/2") else 0)
    if code == 0:
        # the probe is solved, and reads as the derivation's solution would
        probe = derive_antisymmetry(1, 1, ordering).solution.value.format()
        assert body["details"]["probe_phase"] == probe == "0"


def test_exchange_derive_fails_a_probe_at_pi(capsys, monkeypatch):
    real = cli.solve_exchange_phase
    monkeypatch.setattr(
        cli,
        "solve_exchange_phase",
        lambda psi, ordering: dataclasses.replace(real(psi, ordering), value=MINUS_ONE),
    )
    code, body = run(capsys, ["exchange-derive"])
    assert code == 1
    assert [c["name"] for c in body["checks"] if not c["pass"]] == ["integer_spin_probe_symmetric"]
    assert body["details"]["probe_phase"] == "1*pi"


# the float flags that remain, then removed unit flags that once took a
# float: a non-finite value must reach no kernel through either
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
    if flag in REMOVED_OPTIONS[command]:
        assert f"unrecognized arguments: {flag}={value}" in captured.err
    else:
        assert "finite" in captured.err


@pytest.mark.parametrize("line", ["time = inf", "b_max = nan", "b_max = -inf", "tol.sum_rule = nan"])
def test_non_finite_config_value_exits_two(capsys, tmp_path, line):
    # each key goes to a command that reads it
    argv = {"time": ["field-sample"], "b_max": ["zeeman"]}.get(line.split()[0], ["sum-rule", "--n-cut", "2"])
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


@pytest.mark.parametrize(
    "key,flag,value",
    [
        ("b_points", "--b-points", "1"),
        ("n_max", "--n-max", "0"),
        ("ensemble", "--ensemble", "0"),
        ("pairs", "--pairs", "-1"),
        ("seed", "--seed", "x"),
        ("seed", "--seed", "-1"),
        ("dims", "--dims", "3,3"),
    ],
)
def test_config_values_are_validated_like_flags(capsys, tmp_path, key, flag, value):
    commands = {"ensemble": "phases", "pairs": "phases", "dims": "sum-rule", "b_points": "zeeman"}
    command = commands.get(key, "totals")
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
    # a table of NaN elements makes every per-state error NaN
    def nan_table(*a, **k):
        table = build_oscillator_table(*a, **k)
        return dataclasses.replace(table, x=table.x * math.nan, y=table.y * math.nan)

    monkeypatch.setattr(cli, "build_oscillator_table", nan_table)
    checks, _, _ = runner(resolved(args))
    numeric = [c for c in checks if c["tolerance"] > 0]
    assert numeric
    for check in numeric:
        assert math.isnan(check["actual"])
        assert not check["pass"]


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
    assert main(["sz", "--points", "255"]) == 2
    assert "an integer of at least 256" in capsys.readouterr().err


# SHA-256 of each phases report with wall_time_s popped, keyed by
# (--n-max, --ensemble, --pairs) at the default seed, as a draw of the whole
# zeta matrix reports them; the streamed draw keeps only the pairs' columns
# and must keep every byte
PHASES_DIGESTS = [
    ((1, 1, 1), "5653cf6f7610f7c84e13969d466287bd50d1d9c5b111d36df09ad59a9152125c"),
    ((1, 1, 200), "41af9f814f07a5291e19abe43cecc75375e12603aa166b5468bad10e2e4659d1"),
    ((1, 7, 1), "2a8c2ca69d7627a8adca9199f091eed9d440f744a78e523b6844d9d053ffad1a"),
    ((1, 7, 200), "ba1358c4e6e511bb237ddf5f2aa779285fbe5b51b836dff4bdda5e515849c8ce"),
    ((1, 20000, 1), "0076d0110bd8dc96e91909590ed0bb4d387fdc454816912632cd4d8e81e54d7b"),
    ((1, 20000, 200), "f7e93dd8d6996f82036cfd39a69915e9b2c44e04b93acbb952409238074075fa"),
    ((2, 1, 1), "ced9febcff46b38a223bb16813e9f51ee935ab9a8eb73d17e84dd21bd8f8a4eb"),
    ((2, 1, 200), "bc67714328d4b544b80974c9f71fd6af344dbebbe1799f77c3a368d835153ff6"),
    ((2, 7, 1), "0ab88052b7d0bb9cf38e592baf90cb0f53227425930e855258bcb65653bb409a"),
    ((2, 7, 200), "e6272993343fc2fa3870498f95773991509e75188b70b6c6d840b4e3c8c5235a"),
    ((2, 20000, 1), "9fc50544fdda66b9f4b2bbb4419575ebca33062c7ba1a6eb57f4af88c6e54a81"),
    ((2, 20000, 200), "8df535d3ea56c9c0e968f551a75c283d47b4d5657dbbb44a0bc7458720d0795c"),
    ((3, 1, 1), "ec167eb51c8f7519386fe3fd0b33115d4e4b47348a148e7da3b533643c8ee8c6"),
    ((3, 1, 200), "380d7d65bdac1e8975d675d3ceadf08c7f9dbb7a534d87270826108954cdcc27"),
    ((3, 7, 1), "85d6f216d331fe91271b6fa88111db301d2c5c1f2038fbf73926fee5aae01ee0"),
    ((3, 7, 200), "647961d4889ea40ba6f054273d86e01b55da3fdab2011e46ae94bd2b7e7a9a97"),
    ((3, 20000, 1), "b2d299660ba17bef97d45921b83b96711a5f2d2a2d1b9f1936c0c36ffa2e77fc"),
    ((3, 20000, 200), "a69cac50f7e781a811318bb5e8e059b591b3fc4e7e6c29fdadc197e44b3bea79"),
    ((4, 1, 1), "b0f045db6b216fd44b3456eda0695120f709b8293d2eb5a572b25deb0a91402c"),
    ((4, 1, 200), "01267ba569e59019454e0996cb249b4ea126962b96880c96abe700874cd4356c"),
    ((4, 7, 1), "9206f37e8a629c3d74455ae5d63fb4a37938868ccab7e738b6945b5efd9ba7bc"),
    ((4, 7, 200), "d7e91ea901f06b891383f922cd9e5b5469f46d27203f0c1b016cd87b6939a3c4"),
    ((4, 20000, 1), "6623e93ccc600c3c23525051b32d903bf844f7fd653d2c131b3900c3c7fa05c7"),
    ((4, 20000, 200), "601fd6fdb7a420e38b2ed294a40f7ff723194ee490278ba6e2b57a3f8edc9c3e"),
]


@pytest.mark.parametrize("sizes,digest", PHASES_DIGESTS)
def test_phases_reports_are_pinned(capsys, sizes, digest):
    n_max, ensemble, pairs = (str(v) for v in sizes)
    code, body = run(capsys, ["phases", "--n-max", n_max, "--ensemble", ensemble, "--pairs", pairs])
    assert code == 0
    body.pop("wall_time_s")
    assert hashlib.sha256(json.dumps(body).encode()).hexdigest() == digest


# SHA-256 of each exact command's report with wall_time_s popped, and its
# exit code (1: mixed spins contradict the exchange constraint). These
# reports are exact pure-Python arithmetic, so the digests hold on every
# platform; sz is left out, as its stencil runs in numpy.
EXACT_DIGESTS = [
    (
        "exchange-derive --spin-a 1/2 --spin-b 1/2 --ordering phi2_greater",
        0,
        "2ed9bb4d55bd6562a72fc3c9a73e53f1f20879b55667a5c91bdc839abe471fa6",
    ),
    (
        "exchange-derive --spin-a 1 --spin-b 1 --ordering phi2_greater",
        0,
        "ffe8688377f1f69729042dc0e8c65524472f3f2b8332caeb8c68af277ba5ec23",
    ),
    (
        "exchange-derive --spin-a 1/2 --spin-b 1 --ordering phi2_greater",
        1,
        "14d56b1920679560c2459abdc395efaa6a453615c30dc622c297a66d587521b6",
    ),
    (
        "exchange-derive --spin-a 1/2 --spin-b 1/2 --ordering phi1_greater",
        0,
        "a19219c5960f0fa0cbead7deb6c67db1f2605af4cdcdb10271c2b27439aa2d25",
    ),
    (
        "exchange-derive --spin-a 1 --spin-b 1 --ordering phi1_greater",
        0,
        "3ff4f68991479a49aaceeddea18ab4754b815d2859b5a9228b25c7e5ea93fe84",
    ),
    (
        "exchange-derive --spin-a 1/2 --spin-b 1 --ordering phi1_greater",
        1,
        "3218808cb4c087671e0b4c201ac0f3c3965ff991caba5f0a85a214b9e69f1742",
    ),
    (
        "exchange-derive --spin-a 1/2 --spin-b 1/2 --ordering tie",
        0,
        "4cff238787ad63922c4b52f67eb7b800371e376cf6a0f3b3026c85713dca4afd",
    ),
    (
        "exchange-derive --spin-a 1 --spin-b 1 --ordering tie",
        0,
        "b965710a55ce79f4edf547ca2a5e526f7edf7284d5b69f2bf5556edf004b12cb",
    ),
    (
        "exchange-derive --spin-a 1/2 --spin-b 1 --ordering tie",
        1,
        "f5ff27d66058213c33e96cefb27fcbb5f9c1678b656f2e1df6ee8e5c59879d9d",
    ),
    (
        "slater --labels a:1/2",
        0,
        "3c6baf9069236a024e846cce08deeebb89c94b518f3e995389e57611a16067b1",
    ),
    (
        "slater --labels a:1/2,b:-1/2",
        0,
        "b5d931e92df95ca6f73c7e919d7774897c09087fffab188141302b66f08b3f10",
    ),
    (
        "slater --labels a:1/2,b:-1/2,c:3/2",
        0,
        "c0014684f8fc5ba44fa1090f7949a274381d6046b4338b9d9a8705f616013146",
    ),
    (
        "slater --labels a:1/2,b:-1/2,c:3/2,d:-3/2",
        0,
        "e91dd44710d3c8f029d368d858cce8707067ea5bffe37a82db45cb4abcd3303e",
    ),
    (
        "slater --labels a:1/2,b:-1/2,c:3/2,d:-3/2,e:1/2",
        0,
        "0977af4e1644870f575e2acc3010ffa05bc57aed305d87516cba9c20bed45d44",
    ),
    (
        "slater --labels a:1/2,b:-1/2,c:3/2,d:-3/2,e:1/2,f:-1/2",
        0,
        "154fadc6188a6c2eafedcd8955f9719ce8e7da3586e5de8e17ecd9ada81bb667",
    ),
    (
        "slater --labels a:1/2,b:-1/2,c:3/2,d:-3/2,e:1/2,f:-1/2,g:3/2",
        0,
        "2fa7ac5ec2f3bfcecec9c157c251692e790fad0879e749a712194266ba2468c2",
    ),
    (
        "slater --labels a:1/2,b:-1/2,c:3/2,d:-3/2,e:1/2,f:-1/2,g:3/2,h:-3/2",
        0,
        "3e3cd35496baa38bc161bee7788599799c9872521989a1a45958382a26671c6a",
    ),
    (
        "slater --labels a:1/2,b:-1/2,a:1/2",
        0,
        "15b216ca2d2da233411dee5151f4583e55466b27f1ab1e96f35d59491d40cc8e",
    ),
    ("antiphase --n 1", 0, "74f03cdb47531b241b68279a14838a7531bfac81f7d03d6b054f1c4f433992ec"),
    ("antiphase --n 2", 0, "438d2e28dffb30da6b014ffcfdb618a2b227d55ec88f5e0c2cad2ef77c2375ee"),
    ("antiphase --n 3", 0, "e2eb6b09a71fb71059ca0199072e520ee90efb9f6ba3c1e696876ee4599c4223"),
    ("antiphase --n 4", 0, "4d874248f438853f0b56ff669a752a17455fbe6f36745a47ca3117cd63bd9068"),
    ("antiphase --n 5", 0, "81d80ca4e295975508bb6a62b8fd250e5d5011e20cf69aee85b8c1debea9fcaa"),
    ("dichotomy", 0, "3cda9fa5fbb32bc6f48704ae456e3f747b151856bb71c567dfb6e54b425944a2"),
    ("zeeman", 0, "11d9ff1d93625dd193b5ab84426e22b7a74b939f45d0205adb395eb313cae581"),
]


@pytest.mark.parametrize("argv,code,digest", EXACT_DIGESTS)
def test_exact_command_reports_are_pinned(capsys, argv, code, digest):
    assert main(argv.split()) == code
    body = json.loads(capsys.readouterr().out)
    body.pop("wall_time_s")
    assert hashlib.sha256(json.dumps(body).encode()).hexdigest() == digest


def test_phases_draw_holds_only_the_read_columns(capsys):
    # the whole zeta matrix of 20000 realizations of 1456 modes is 233 MB;
    # the 20 columns the pairs read are 3.2 MB
    tracemalloc.start()
    try:
        assert main(["phases", "--n-max", "4", "--ensemble", "20000"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 10 * 2**20


def _declared_bytes(argv) -> int:
    cfg = resolved(argv)
    cost = cli._EXPERIMENTS[cfg.command].cost(cfg)
    return sum(amount for _, unit, amount in cost if unit == "bytes")


def _benchmark_argv(seed: int) -> list:
    """Every argv of the benchmark mixes at `seed`, each as one string."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        workloads = _perfbench_module(monkeypatch, "workloads")
        return [
            " ".join(case.argv)
            for workload in workloads.WORKLOADS
            for case in workloads.build_mix(workload, seed)
        ]


@pytest.mark.parametrize(
    "argv",
    [
        # the two phases argv of the mode-fields benchmark workload
        "phases --n-max=1 --ensemble=20000",
        "phases --n-max=2 --ensemble=2000",
        # the seed-2 argv, whose ten pairs read 20 distinct columns: the
        # temporaries of a pair mean come on top of all of them
        "phases --n-max=1 --ensemble=20000 --seed=1785675398",
        # one pair: its two columns are small beside those temporaries
        "phases --n-max=1 --ensemble=200000 --pairs=1",
        "phases --n-max 4 --ensemble 20000",
        # a row of 2M words is longer than a draw block
        "phases --n-max 13 --ensemble 3",
        # every seed-1 benchmark run that declares bytes: tables,
        # quadratures, field samples, realizations and ensembles
        *[argv for argv in _benchmark_argv(1) if _declared_bytes(argv.split())],
    ],
)
def test_phases_declares_at_least_its_peak_bytes(capsys, argv):
    # the bytes main refuses from cover what the run holds at once; for
    # phases the modes, the pairs, the kept columns and the block of rows
    # being drawn
    argv = argv.split()
    declared = _declared_bytes(argv)
    # a first run loads the lazily imported numpy modules, which no size
    # estimate counts
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak <= declared


def _never_called(*args, **kwargs):
    raise AssertionError("work started before the size check")


# stands for a --csv path under the test's tmp_path
CSV_IN_TMP = "<tmp>/out.csv"


@pytest.mark.parametrize(
    "argv,patched,estimate",
    [
        # 3e6 realizations x 52 modes: zeta draws past the budget of 2^27,
        # although the 20 columns the pairs read would fit
        (["phases", "--ensemble", "3000000"], "sample_zeta_ensemble", "156000000 zeta draws"),
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
        # 3543120 modes x 760 bytes: the mode arrays of a realization
        (["field-sample", "--n-max", "60"], "sample_realization", "2.5 GiB"),
        (["totals", "--n-max", "60"], "sample_realization", "2.5 GiB"),
        # 128962400 modes x 760 bytes, although one row of zetas, 8 bytes a
        # mode, would fit
        (
            ["phases", "--n-max", "200", "--ensemble", "1", "--pairs", "1"],
            "sample_zeta_ensemble",
            "91.3 GiB",
        ),
        # 1409936 modes x 760 bytes + 10000 points x 445 bytes: each part
        # fits on its own, together they do not
        (
            ["field-sample", "--n-max", "44", "--points", "10000"],
            "sample_realization",
            "(1076001360 bytes)",
        ),
        # 20000 points x (9824 + 4) modes pass the budget of 1e8 mode
        # evaluations, although every array fits: the --csv rows evaluate
        # every mode, the checks 1 + 1 + 2 more
        (
            ["field-sample", "--n-max", "8", "--points", "20000", "--csv", CSV_IN_TMP],
            "sample_realization",
            "196560000 mode evaluations",
        ),
        # 1e6 realizations x 1409936 modes pass the budget of 2^27 zeta
        # draws, although the modes and the two kept columns fit
        (
            ["phases", "--n-max", "44", "--ensemble", "1000000", "--pairs", "1"],
            "sample_zeta_ensemble",
            "1409936000000 zeta draws",
        ),
        # a pair over fewer than 1000 realizations is charged 1000 rows, its
        # fixed cost, so many pairs over one realization pass the budget too
        (
            ["phases", "--ensemble", "1", "--pairs", "100001"],
            "sample_zeta_ensemble",
            "100001000 pair rows",
        ),
        (
            ["phases", "--ensemble", "1", "--pairs", "766958"],
            "sample_zeta_ensemble",
            "766958000 pair rows",
        ),
    ],
)
def test_oversized_modes_runs_exit_two_before_any_work(
    capsys, monkeypatch, tmp_path, argv, patched, estimate
):
    argv = [str(tmp_path / "out.csv") if arg == CSV_IN_TMP else arg for arg in argv]
    monkeypatch.setattr(cli, patched, _never_called)
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert estimate in captured.err


def test_antiphase_at_a_billion_particles_reports_as_at_five(capsys):
    # three angles settle the verdict, so the particle count costs nothing;
    # 5 is the smallest count past the eighth-turn grid cross-check
    start = time.perf_counter()
    code, body = run(capsys, ["antiphase", "--n", "1000000000"])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert body["details"] == {"n": 1000000000, "witness": None}
    _, five = run(capsys, ["antiphase", "--n", "5"])
    for report in (body, five):
        del report["config"]["n"], report["details"]["n"], report["wall_time_s"]
    assert body == five


def test_zeeman_csv_ramp_past_the_limit_exits_two(capsys, monkeypatch, tmp_path):
    # about 50 us a field value: 50000 take about 3 s
    path = tmp_path / "levels.csv"
    monkeypatch.setattr(cli, "build_oscillator_table", _never_called)
    assert main(["zeeman", "--b-points", "50001", "--csv", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "50001 field values, over the limit of 50000" in captured.err
    assert not path.exists()


def test_zeeman_csv_ramp_at_the_limit_runs(capsys, monkeypatch, tmp_path):
    # the report's own levels come from the first call; the ramp's rows are
    # stubbed out, so that the 50000 ramp values cost no levels
    levels, calls = cli.zeeman_levels, []

    def report_levels_only(*args):
        calls.append(args)
        return levels(*args) if len(calls) == 1 else []

    monkeypatch.setattr(cli, "zeeman_levels", report_levels_only)
    path = tmp_path / "levels.csv"
    assert main(["zeeman", "--b-points", "50000", "--csv", str(path)]) == 0
    capsys.readouterr()
    assert path.read_text() == "B,m_l,m_s,energy\n"


def test_zeeman_ramp_length_is_free_without_csv(capsys):
    assert main(["zeeman", "--b-points", "1000000"]) == 0
    capsys.readouterr()


def test_field_sample_without_csv_is_charged_for_its_checks_only(capsys):
    # the refused --csv run above: its checks evaluate 1 + 1 + 2 modes a
    # point, 80000 mode evaluations in all
    assert main(["field-sample", "--n-max", "8", "--points", "20000"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [["sum-rule", "--dims", "3", "--n-cut", "243"], ["sum-rule", "--dims", "2", "--n-cut", "2208"]],
)
def test_refusal_just_past_the_limit_states_its_bytes(capsys, monkeypatch, argv):
    # the smallest tables over the limit round to it, 1.0 GiB; the byte
    # counts in the message show why they are refused
    monkeypatch.setattr(cli, "build_oscillator_table", _never_called)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "it needs 1.0 GiB" in captured.err
    needed, limit = (int(v) for v in re.findall(r"\((\d+) bytes\)", captured.err))
    assert limit == errors.LIMITS["bytes"] < needed


@pytest.mark.parametrize(
    "argv,owner,patched",
    [
        # the bound 1e307 |H| of energy overflows, |H| = pi |n| here
        pytest.param(
            ["mode-observables", "--n", "7,-3,5", "--tol", "observables=1e307"], modes, "sample_fields",
            id="argv9-zpfspin.modes-sample_fields",
        ),
        # the bound 1e308 times the gap 2 overflows
        pytest.param(
            ["zeeman", "--tol", "zeeman_gap=1e308"], cli, "build_oscillator_table",
            id="argv10-zpfspin.cli-build_oscillator_table",
        ),
        # the ramp's last levels overflow below zero
        pytest.param(
            ["zeeman", "--b-max=-1e308", "--csv", CSV_IN_TMP], cli, "build_oscillator_table",
            id="argv11-zpfspin.cli-build_oscillator_table",
        ),
        # the largest phase omega t of the fields overflows
        pytest.param(
            ["field-sample", "--time", "1e308"], cli, "sample_realization",
            id="argv12-zpfspin.cli-sample_realization",
        ),
        # the ramp's last levels b_max (m_l + 2 m_s) overflow
        pytest.param(
            ["zeeman", "--b-max", "1e308", "--csv", CSV_IN_TMP], cli, "build_oscillator_table",
            id="argv13-zpfspin.cli-build_oscillator_table",
        ),
    ],
)
def test_out_of_range_scales_exit_two_before_any_work(
    capsys, monkeypatch, tmp_path, argv, owner, patched
):
    # each value is finite on its own; a bound, a level or the time's phase
    # leaves the floats, so the run is refused before its kernels start
    argv = [str(tmp_path / "out.csv") if arg == CSV_IN_TMP else arg for arg in argv]
    monkeypatch.setattr(owner, patched, _never_called)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "outside the range of normal floats" in captured.err
    assert not (tmp_path / "out.csv").exists()


def _reported_floats(value):
    """Every float in a decoded report, however deeply nested."""
    if isinstance(value, float):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _reported_floats(item)
    elif isinstance(value, list):
        for item in value:
            yield from _reported_floats(item)


@pytest.mark.parametrize(
    "argv",
    [
        ["sum-rule"],
        ["mode-observables"],
        ["mode-observables", "--n", "1,0,0", "--grid", "64"],
        ["field-sample", "--points=4", "--time=1"],
        ["field-sample", "--points=4", "--time=-1"],
        ["field-sample", "--points=4"],
        ["field-sample", "--points=4", "--time=1e6"],
        ["field-sample", "--points", "4", "--n-max", "2"],
        ["field-sample", "--points", "4", "--n-max", "3"],
        ["field-sample", "--points", "8"],
        ["mode-observables", "--n", "0,0,1", "--grid", "16"],
        ["mode-observables", "--gamma=-1"],
        ["mode-observables", "--n=2,-1,1", "--gamma=-1", "--grid=8"],
        ["mode-observables", "--n=3,3,3"],
        ["mode-observables", "--grid=8"],
        ["mode-observables", "--n=0,1,0", "--grid=8"],
        ["mode-observables", "--n=9,0,-2", "--grid=40"],
        ["totals"],
        ["totals", "--n-max", "2"],
        ["angular-momentum", "--n-cut", "3"],
        ["sum-rule", "--dims=3", "--n-cut=2"],
        ["angular-momentum", "--dims=3", "--n-cut=1"],
        ["angular-momentum", "--dims=2", "--n-cut=12"],
        ["sum-rule", "--n-cut=5"],
        ["sz"],
        ["zeeman", "--b-max", "1e-300"],
        ["zeeman", "--b-max", "1e300"],
    ],
)
def test_units_that_keep_every_reported_value_normal_run(capsys, argv):
    # in natural units no reported value is converted, so a run at any
    # size passes its checks and reports no float outside the normal range
    code, body = run(capsys, argv)
    assert code == 0
    assert all(check["pass"] for check in body["checks"])
    reported = list(_reported_floats(body))
    assert reported
    assert all(value == 0.0 or sys.float_info.min <= abs(value) < math.inf for value in reported), argv


@pytest.mark.parametrize(
    "argv",
    [
        ["field-sample", "--time", "1e307"],
        ["field-sample", "--time=-1e307"],
        ["field-sample", "--time", "0"],
        # no ramp is built without --csv, so its levels are not checked
        ["zeeman", "--b-max", "1e308"],
        # a subnormal time keeps every phase finite
        ["field-sample", "--time", "5e-324"],
    ],
)
def test_scales_just_inside_the_range_run(capsys, argv):
    assert main(argv) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        # at its point floor the stencil's error, 6.0e-9 hbar, is inside sz_agreement
        ["sz", "--points", "256"],
        ["sz", "--points", "256", "--winding=-1/2"],
        ["angular-momentum", "--dims", "3", "--n-cut", "20"],
        # mode-observables judges each error relative to |H|, |P| and |J|
        ["mode-observables", "--n", "7,-3,5", "--grid", "64"],
        ["mode-observables", "--n", "9,0,-2", "--grid", "40"],
        ["mode-observables", "--n", "0,4,5", "--gamma=-1"],
        ["mode-observables", "--n", "2,-1,1", "--gamma=-1", "--grid", "8"],
        ["mode-observables", "--n", "1,0,0", "--grid", "64"],
        ["sz", "--points", "4096", "--winding=-1/2"],
        ["angular-momentum", "--dims", "2", "--n-cut", "12"],
        ["sum-rule", "--dims", "3", "--n-cut", "12"],
    ],
)
def test_tolerances_follow_the_scale_of_what_they_bound(capsys, argv):
    code, body = run(capsys, argv)
    assert code == 0
    assert all(check["pass"] for check in body["checks"])


def test_mode_observables_phase_independence_fails_on_a_nan(capsys, monkeypatch):
    # a NaN that is not the first of the three relative differences
    observables = cli.mode_observables
    calls = []

    def second_p_nan(*args, **kwargs):
        obs = observables(*args, **kwargs)
        calls.append(obs)
        if len(calls) == 2:
            obs.P[1] = math.nan
        return obs

    monkeypatch.setattr(cli, "mode_observables", second_p_nan)
    code, body = run(capsys, ["mode-observables"])
    assert code == 1
    assert [c["name"] for c in body["checks"] if not c["pass"]] == ["phase_independence"]


@pytest.mark.parametrize(
    "argv",
    [
        ["mode-observables", "--tol", "observables=1e308"],
        # the bound is 1e308 times the gap 2
        ["zeeman", "--tol", "zeeman_gap=1e308"],
        # |H| of this mode is pi |n|, about 29
        ["mode-observables", "--n", "9,0,-2", "--tol", "observables=1e307"],
        # just past the largest float, 1.8e308
        ["zeeman", "--tol", "zeeman_gap=9e307"],
    ],
)
def test_infinite_tolerance_bounds_exit_two(capsys, argv):
    # each tolerance is finite, its product with the scale it is relative to is not
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    name = argv[-1].partition("=")[0]
    assert captured.err.startswith(f"error: refusing tolerance {name}=")
    assert "its bound is inf, outside the range of normal floats" in captured.err
    assert captured.err.count("\n") == 1


def _nan_in_call(monkeypatch, call: int, field: int):
    """Patch cli.sample_fields so that its call-th call (from 1) returns a
    NaN in field 0, 1 or 2 (A, E or B)."""
    sample = cli.sample_fields
    calls = []

    def patched(*args, **kwargs):
        fields = sample(*args, **kwargs)
        calls.append(fields)
        if len(calls) == call:
            fields[field][0, 0] = math.nan
        return fields

    monkeypatch.setattr(cli, "sample_fields", patched)


def test_field_sample_nan_in_the_first_mode_fails_transversality(capsys, monkeypatch):
    # calls: the first mode, the second, the pair; E1 also enters linearity
    _nan_in_call(monkeypatch, 1, 1)
    code, body = run(capsys, ["field-sample", "--points", "8"])
    assert code == 1
    assert [c["name"] for c in body["checks"] if not c["pass"]] == ["transversality", "linearity"]


def test_field_sample_nan_in_the_pair_fails_linearity(capsys, monkeypatch):
    # Bb is the last of the three relative differences linearity takes
    _nan_in_call(monkeypatch, 3, 2)
    code, body = run(capsys, ["field-sample", "--points", "8"])
    assert code == 1
    assert [c["name"] for c in body["checks"] if not c["pass"]] == ["linearity"]


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["field-sample", "--points=4", "--time=1e308", "--csv", CSV_IN_TMP], id="argv4"),
        pytest.param(
            ["field-sample", "--points=4", "--n-max=2", "--time=-1e308", "--csv", CSV_IN_TMP],
            id="negative_time",
        ),
    ],
)
def test_field_sample_refuses_field_weights_outside_the_floats(capsys, tmp_path, argv):
    # the largest phase omega t of the fields overflows: with --csv and
    # --report the run is refused before either file is opened
    argv = [str(tmp_path / "out.csv") if arg == CSV_IN_TMP else arg for arg in argv]
    report = tmp_path / "report.json"
    assert main([*argv, "--report", str(report)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: refusing the fields of modes in a box of edge ")
    # no numpy warning joins the error line, and no CSV or report is left behind
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "out.csv").exists()
    assert not report.exists()


@pytest.mark.parametrize("unwritable", ["csv", "report"])
def test_a_refused_csv_leaves_no_report(capsys, tmp_path, unwritable):
    # the CSV is written first, and removed again if the report cannot be
    paths = {"report": tmp_path / "r.json", "csv": tmp_path / "out.csv"}
    paths[unwritable] = tmp_path / "nonexistent-dir" / paths[unwritable].name
    argv = ["field-sample", "--points", "4", "--report", str(paths["report"]), "--csv", str(paths["csv"])]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write output: ")
    assert not paths["report"].exists() and not paths["csv"].exists()


def _float_edges() -> list:
    """(argv, exit code) on each side of the largest finite field phase and
    ramp level, both signs, and at the smallest subnormal inputs."""
    omega_max = float(np.linalg.norm(modes.wave_vector([1, 1, 1])))
    time = sys.float_info.max / omega_max
    while math.isinf(omega_max * time):
        time = math.nextafter(time, 0.0)
    while math.isfinite(omega_max * math.nextafter(time, math.inf)):
        time = math.nextafter(time, math.inf)
    # max / 2 is exact, and 2 (max / 2) is max
    level = sys.float_info.max / 2
    edges = []
    for sign in (1.0, -1.0):
        for inside, code in ((True, 0), (False, 2)):
            t = sign * (time if inside else math.nextafter(time, math.inf))
            b = sign * (level if inside else math.nextafter(level, math.inf))
            edges += [
                (["field-sample", f"--time={t!r}"], code),
                (["field-sample", f"--time={t!r}", "--csv"], code),
                (["zeeman", f"--b-max={b!r}", "--csv"], code),
            ]
    edges += [(["field-sample", "--time=5e-324", "--csv"], 0), (["zeeman", "--b-max=1e-310", "--csv"], 0)]
    return edges


def test_float_inputs_across_the_range_exit_zero_or_two(capsys, tmp_path):
    # exit 1 would be a failed verdict on correct code, exit 3 an unforeseen
    # error; the RuntimeWarning filter turns a numpy warning into exit 3.
    # A run exits 0 with finite values throughout, or 2 where the largest
    # field phase or ramp level leaves the floats
    rng = random.Random(308)
    sweep = []
    for _ in range(60):
        value = f"{rng.choice((1, -1)) * 10 ** rng.uniform(-308, 308)!r}"
        argv = rng.choice([["field-sample", f"--time={value}"], ["zeeman", f"--b-max={value}"]])
        sweep.append((argv + ["--csv"] if argv[0] == "zeeman" or rng.random() < 0.5 else argv, None))
    sweep += _float_edges()
    path = tmp_path / "out.csv"
    codes = []
    for argv, expected in sweep:
        if argv[0] == "field-sample":
            argv = [*argv[:1], "--points=4", *argv[1:]]
        if argv[-1] == "--csv":
            argv = [*argv, str(path)]
        path.unlink(missing_ok=True)
        code = main(argv)
        captured = capsys.readouterr()
        codes.append(code)
        assert code in (0, 2), (argv, captured.err)
        assert expected in (None, code), (argv, captured.err)
        written = path.read_text() if path.exists() else None
        if code == 0:
            assert "NaN" not in captured.out and "Infinity" not in captured.out, argv
            assert written is None or not re.search(r"nan|inf", written), argv
            assert all(check["pass"] for check in json.loads(captured.out)["checks"]), argv
        else:
            assert captured.out == "" and written is None, argv
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, (argv, captured.err)
            assert "outside the range of normal floats" in captured.err, (argv, captured.err)
    assert 0 in codes and 2 in codes
