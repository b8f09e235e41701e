"""Command-line surface: report schema, exit codes, config handling, CSV."""

import argparse
import csv
import json
import math
import time

import pytest

from zpfspin.cli import RunConfig, _run_angular_momentum, _run_sum_rule, main

ALL_COMMANDS = [
    "mode-observables",
    "field-sample",
    "totals",
    "phases",
    "sum-rule",
    "angular-momentum",
    "spin-split",
    "zeeman",
    "dichotomy",
    "sz",
    "exchange-derive",
    "antiphase",
    "slater",
]

FAST_ARGS = {
    "phases": ["--ensemble", "200", "--pairs", "3"],
    "sum-rule": ["--n-cut", "4"],
    "angular-momentum": ["--n-cut", "4"],
}


def run(capsys, args):
    code = main(args)
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.mark.parametrize("command", ALL_COMMANDS)
def test_every_command_reports_and_passes(capsys, command):
    code, body = run(capsys, [command, *FAST_ARGS.get(command, [])])
    assert code == 0
    assert body["schema"] == 1
    assert body["command"] == command
    assert set(body) == {"schema", "command", "config", "checks", "details", "wall_time_s"}
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
    cfg.write_text("seed = 11\nensemble = 150\n# comment line\ntol.sum_rule = 1e-10\n")
    _, body = run(capsys, ["phases", "--config", str(cfg), "--pairs", "2"])
    assert body["config"]["seed"] == 11
    assert body["config"]["ensemble"] == 150
    assert body["config"]["pairs"] == 2
    assert body["config"]["tolerances"] == {"sum_rule": 1e-10}
    _, flagged = run(
        capsys, ["phases", "--config", str(cfg), "--pairs", "2", "--seed", "4"]
    )
    assert flagged["config"]["seed"] == 4


def test_unknown_config_key_exits_two(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("boxes = 3\n")
    assert main(["totals", "--config", str(cfg)]) == 2
    assert "boxes" in capsys.readouterr().err


def test_malformed_tol_exits_two(capsys):
    assert main(["totals", "--tol", "sum_rule"]) == 2
    capsys.readouterr()


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


NON_FINITE_FLAGS = [
    ("sum-rule", "--box"),
    ("angular-momentum", "--hbar"),
    ("sum-rule", "--c"),
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
    assert main([command, "--units", "explicit", f"{flag}={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


@pytest.mark.parametrize("line", ["L = inf", "hbar = nan", "mu0 = -inf", "tol.sum_rule = nan"])
def test_non_finite_config_value_exits_two(capsys, tmp_path, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert main(["sum-rule", "--n-cut", "2", "--config", str(cfg)]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize(
    "runner,args",
    [
        (_run_sum_rule, argparse.Namespace(dims="2,3", n_cut=3, omega0=1.0)),
        (_run_angular_momentum, argparse.Namespace(dims=2, n_cut=3, omega0=1.0)),
    ],
)
def test_nan_errors_fail_their_checks(runner, args):
    # the parser refuses hbar = inf; past it, every per-state error is NaN
    checks, _, _ = runner(RunConfig(units="explicit", hbar=math.inf), args)
    numeric = [c for c in checks if c.tolerance > 0]
    assert numeric
    for check in numeric:
        assert math.isnan(check.actual)
        assert not check.passed


def test_oversized_table_exits_two_at_once(capsys):
    start = time.perf_counter()
    assert main(["sum-rule", "--dims", "3", "--n-cut", "40"]) == 2
    assert time.perf_counter() - start < 1.0
    assert "GiB" in capsys.readouterr().err
