"""scipy.fft is imported only when a grid runs: every subcommand pays for the
`gravswap.cli` import, so a module-level scipy import would add its cost to
each start-up.  Checked in fresh interpreters, since this process has long
imported scipy."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(code: str, cwd: Path) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=cwd)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_out_scipy_fft(tmp_path):
    code = "import sys\nimport gravswap.cli\nprint('scipy.fft' in sys.modules)\n"
    assert _run(code, tmp_path) == "False"


def test_run_without_grid_leaves_out_scipy_fft(tmp_path):
    code = (
        "import sys\n"
        "import gravswap.cli\n"
        "rc = gravswap.cli.main(['swap', '--oracle', 'none', '--out', 'r'])\n"
        "print(rc, 'scipy.fft' in sys.modules)\n"
    )
    assert _run(code, tmp_path) == "0 False"
