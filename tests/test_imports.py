"""gravswap needs only numpy at run time: scipy is blocked in a fresh
interpreter (`sys.modules["scipy"] = None` makes every import of it fail),
and the CLI still runs the grid oracle from start to end."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _run_without_scipy(args: list[str], cwd: Path) -> None:
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import gravswap.cli\n"
        f"rc = gravswap.cli.main({args!r})\n"
        "sys.exit(rc)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=cwd)
    assert done.returncode == 0, done.stderr


def test_swap_grid_runs_without_scipy(tmp_path):
    (tmp_path / "swap.cfg").write_text("[run]\nkind = swap\n\n[params]\ndelta = 0.1\n")
    _run_without_scipy(["swap", "--config", "swap.cfg", "--oracle", "grid", "--out", "r"], tmp_path)


def test_cat_state_runs_without_scipy(tmp_path):
    _run_without_scipy(["cat-state", "--out", "r"], tmp_path)
