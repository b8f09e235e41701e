"""numpy is bound lazily: the exact commands start and run without it, and
the numeric commands that load it on first use report what an eager import
reports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy
import pytest

from zpfspin import cli
from zpfspin._lazy import lazy_import, np

SRC = str(Path(cli.__file__).resolve().parents[1])

EXACT_COMMANDS = ["slater", "exchange-derive", "antiphase", "dichotomy"]

# runs cli.main on the arguments with numpy unimportable
BLOCKED = """
import sys
sys.modules["numpy"] = None
from zpfspin import cli
sys.exit(cli.main(sys.argv[1:]))
"""

# runs cli.main on the arguments and states on stderr which numpy
# submodules were loaded before the run and whether the run loaded any
OBSERVED = """
import json, sys
from zpfspin import cli
before = sorted(m for m in sys.modules if m.startswith("numpy."))
code = cli.main(sys.argv[1:])
after = any(m.startswith("numpy.") for m in sys.modules)
print(json.dumps({"before": before, "loaded": after}), file=sys.stderr)
sys.exit(code)
"""


def cold(code: str, *argv: str) -> subprocess.CompletedProcess:
    """`python -c code argv...` in a fresh interpreter with the package on its path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env
    )


def report(text: str) -> dict:
    body = json.loads(text)
    body.pop("wall_time_s")
    return body


def in_process(capsys, argv) -> dict:
    assert cli.main(argv) == 0
    return report(capsys.readouterr().out)


def test_import_loads_no_numpy_submodule():
    done = cold(
        "import json, sys, zpfspin.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('numpy.'))))"
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


@pytest.mark.parametrize("command", EXACT_COMMANDS)
def test_exact_commands_run_without_numpy(capsys, command):
    done = cold(BLOCKED, command)
    assert done.returncode == 0, done.stderr
    assert report(done.stdout) == in_process(capsys, [command])


def test_numeric_command_without_numpy_names_it():
    done = cold(BLOCKED, "sz")
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr.startswith("internal error: ModuleNotFoundError: No module named 'numpy'")


@pytest.mark.parametrize(
    "argv",
    [
        ["phases", "--n-max", "1", "--ensemble", "2000"],
        ["sum-rule", "--dims", "3", "--n-cut", "10"],
    ],
)
def test_numpy_loaded_on_first_use_gives_the_same_report(capsys, argv):
    done = cold(OBSERVED, *argv)
    assert done.returncode == 0, done.stderr
    loads = json.loads(done.stderr.splitlines()[-1])
    assert loads == {"before": [], "loaded": True}
    assert report(done.stdout) == in_process(capsys, argv)


def test_loaded_module_is_bound_as_it_is():
    assert lazy_import("numpy") is numpy
    assert np is numpy
    assert np.arange(4).tolist() == [0, 1, 2, 3]


def test_body_runs_at_first_attribute_access(tmp_path, monkeypatch):
    (tmp_path / "lazy_probe.py").write_text(
        "import pathlib\npathlib.Path(__file__).with_suffix('.ran').touch()\nvalue = 42\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        module = lazy_import("lazy_probe")
        assert not (tmp_path / "lazy_probe.ran").exists()
        assert module.value == 42
        assert (tmp_path / "lazy_probe.ran").exists()
    finally:
        sys.modules.pop("lazy_probe", None)


def test_missing_module_raises_at_first_use():
    missing = lazy_import("zpfspin_no_such_module")
    with pytest.raises(ModuleNotFoundError) as info:
        missing.arange
    assert info.value.name == "zpfspin_no_such_module"
    assert "zpfspin_no_such_module" not in sys.modules
