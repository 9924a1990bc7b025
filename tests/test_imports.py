"""gravswap needs only numpy at run time, and of numpy not numpy.ma: each is
blocked in a fresh interpreter (`sys.modules["scipy"] = None` makes every
import of it fail), and the CLI still runs the grid oracle from start to
end.  Importing gravswap sets numpy's BLAS to one thread unless the user
chose a count."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _run_without(module: str, args: list[str], cwd: Path) -> None:
    code = (
        "import sys\n"
        f"sys.modules[{module!r}] = None\n"
        "import gravswap.cli\n"
        f"rc = gravswap.cli.main({args!r})\n"
        "sys.exit(rc)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_env(), cwd=cwd)
    assert done.returncode == 0, done.stderr


def _run_without_scipy(args: list[str], cwd: Path) -> None:
    _run_without("scipy", args, cwd)


def test_swap_grid_runs_without_scipy(tmp_path):
    (tmp_path / "swap.cfg").write_text("[run]\nkind = swap\n\n[params]\ndelta = 0.1\n")
    _run_without_scipy(["swap", "--config", "swap.cfg", "--oracle", "grid", "--out", "r"], tmp_path)


def test_cat_state_runs_without_scipy(tmp_path):
    _run_without_scipy(["cat-state", "--out", "r"], tmp_path)


def test_swap_and_cat_state_run_without_numpy_ma(tmp_path):
    _run_without("numpy.ma", ["swap", "--oracle", "all", "--out", "r1"], tmp_path)
    _run_without("numpy.ma", ["cat-state", "--out", "r2"], tmp_path)


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
def test_import_sets_one_blas_thread_unless_set(preset, expected):
    # the default must be set before numpy loads OpenBLAS, which reads the
    # variable once: OpenBLAS then reports one thread (0 where the library is
    # not found); a preset count is kept, and OpenBLAS caps it at the CPUs
    code = (
        "import os\n"
        "import gravswap.grid\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'], gravswap.grid._openblas_threads()[0]())\n"
    )
    env = _env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    variable, threads = done.stdout.split()
    assert variable == expected
    if preset is None:
        assert threads in ("1", "0")
