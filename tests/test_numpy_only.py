"""The package runs on numpy alone: no command imports scipy."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tailhash

SRC = Path(tailhash.__file__).resolve().parents[1]

# a fresh interpreter in which every import of scipy raises ImportError
NO_SCIPY = ("import sys; sys.modules['scipy'] = None; "
            "from tailhash.cli import main; sys.exit(main())")


def _tailhash(*argv) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", NO_SCIPY, *map(str, argv)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))


@pytest.mark.parametrize("flags, code, verdict", [
    ((), 0, "PASS"), (("--inject-bug",), 3, "FAIL")],
    ids=["clean", "inject_bug"])
def test_check_grad_without_scipy(flags, code, verdict):
    done = _tailhash("check-grad", "--seed", "0", *flags)
    assert done.returncode == code, done.stderr
    lines = done.stdout.strip().splitlines()
    assert len(lines) == 8
    assert all(line.startswith(verdict + "  ") for line in lines)


def test_cli_flow_without_scipy(tmp_path):
    data, run, codes = tmp_path / "d", tmp_path / "run", tmp_path / "codes"
    steps = [
        ["gen-data", "--c", "4", "--z1", "40", "--if", "8",
         "--query-size", "10", "--seed", "0", "--out", data],
        ["train", "--dataset", data / "dataset", "--k", "4",
         "--max-epochs", "2", "--seed", "0", "--out", run],
        *[["encode", "--checkpoint", run / "checkpoint_hash",
           "--dataset", data / "dataset", "--modality", modality,
           "--split", split, "--out", codes]
          for modality, split in (("x", "query"), ("y", "base"))],
        ["eval", "--query-codes", codes / "codes_x_query",
         "--base-codes", codes / "codes_y_base", "--dataset",
         data / "dataset", "--direction", "i2t", "--out", tmp_path / "ev"]]
    for argv in steps:
        done = _tailhash(*argv)
        assert done.returncode == 0, (argv[0], done.stderr)
    assert (tmp_path / "ev" / "report_i2t.json").exists()


def test_numpy_is_the_only_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(
        (SRC.parent / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group()
             for dep in project["dependencies"]]
    assert names == ["numpy"]
