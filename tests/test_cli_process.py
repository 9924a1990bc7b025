"""The CLI as a process, run through `python -m gravswap.cli`: its exit
codes, the summary it prints, and its exit when the reader of its stdout has
gone.  The process leaves through os._exit after `main` returns, so what
the interpreter's teardown would have flushed must already be out."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from gravswap.cli import main as cli_main

SRC = Path(__file__).resolve().parents[1] / "src"
# a swap at strong coupling whose mean-field fidelity leaves its bound: FAIL
_FAILING_SWAP = "[run]\nkind = swap\noracle = none\n[params]\ndelta = 0.45\n"


def _cli(args, cwd, stdout=subprocess.PIPE, unbuffered=False) -> subprocess.CompletedProcess:
    """Runs the CLI; its stdout is block-buffered, as in a user's pipe,
    unless `unbuffered`, which has each write go out at once."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    argv = [sys.executable, "-m", "gravswap.cli", *args]
    return subprocess.run(argv, stdout=stdout, stderr=subprocess.PIPE, env=env, cwd=cwd, timeout=120)


def _headline_code(report: Path) -> int:
    """The exit code the headline of summary.txt calls for."""
    headline = (report / "summary.txt").read_text(encoding="utf-8").splitlines()[0]
    assert headline.endswith((": PASS", ": FAIL")), headline
    return 0 if headline.endswith(": PASS") else 1


@pytest.mark.parametrize(
    "args,config,code",
    [
        (["feasibility"], None, 0),
        (["swap", "--config", "c.txt"], _FAILING_SWAP, 1),
    ],
    ids=["pass", "fail"],
)
def test_exit_code_is_the_verdict(tmp_path, monkeypatch, capsys, args, config, code):
    # the process, the headline of its report and `main` in this process
    # agree on the verdict; piped stdout arrives whole
    if config is not None:
        (tmp_path / "c.txt").write_text(config)
    done = _cli([*args, "--out", "proc"], tmp_path)
    assert done.returncode == code
    assert _headline_code(tmp_path / "proc") == code
    out = done.stdout.decode()
    assert out.startswith(f"gravswap {args[0]} report: ") and out.endswith("report written to proc\n")
    assert b"Traceback" not in done.stderr
    # the failing swap's delta = 0.45 warns once, at a line of gravswap's
    assert done.stderr.count(b"UserWarning") == (config is not None) and b"<string>" not in done.stderr
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the strong-coupling warning
        assert cli_main([*args, "--out", "in"]) == code
    assert capsys.readouterr().out == out.removesuffix("proc\n") + "in\n"


def test_refused_config_exits_2_with_one_error_line(tmp_path):
    (tmp_path / "c.txt").write_text("[run]\nkind = swap\n[params]\ndelta = -1\n")
    done = _cli(["swap", "--config", "c.txt", "--out", "r"], tmp_path)
    assert done.returncode == 2
    lines = done.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert done.stdout == b"" and not (tmp_path / "r").exists()


def test_out_naming_a_file_exits_3(tmp_path):
    (tmp_path / "file").write_text("")
    done = _cli(["feasibility", "--out", "file"], tmp_path)
    assert done.returncode == 3
    lines = done.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "args,config",
    [(["feasibility"], None), (["swap", "--config", "c.txt"], _FAILING_SWAP)],
    ids=["pass", "fail"],
)
def test_closed_stdout_keeps_the_verdict(tmp_path, args, config, unbuffered):
    # the read end is closed before the CLI starts, so stdout meets a broken
    # pipe, buffered at the flush before exit, unbuffered at the summary's
    # write: no traceback, the verdict's exit code, and the report on disk
    # whole, the same files as a run with a reader
    if config is not None:
        (tmp_path / "c.txt").write_text(config)
    read, write = os.pipe()
    os.close(read)
    try:
        done = _cli([*args, "--out", "closed"], tmp_path, stdout=write, unbuffered=unbuffered)
    finally:
        os.close(write)
    assert b"Traceback" not in done.stderr and b"BrokenPipeError" not in done.stderr, done.stderr
    report = tmp_path / "closed"
    assert done.returncode == _headline_code(report)
    assert (report / "manifest.txt").is_file()  # written last: the file set is complete
    assert _cli([*args, "--out", "piped"], tmp_path).returncode == done.returncode
    files = sorted(p.name for p in report.iterdir())
    assert files == sorted(p.name for p in (tmp_path / "piped").iterdir())
    assert all((report / f).read_bytes() == (tmp_path / "piped" / f).read_bytes() for f in files)


@pytest.mark.parametrize("args,code", [(["swap", "--help"], 0), (["nope"], 2)], ids=["help", "unknown-command"])
def test_argparse_exit_onto_closed_stdout(tmp_path, args, code):
    # argparse's exit takes the flush and os._exit of `run` too: its text
    # arrives whole with a reader, and a closed stdout leaves argparse's code
    # with no ignored BrokenPipeError at interpreter exit
    done = _cli(args, tmp_path)
    assert done.returncode == code
    assert (done.stdout.startswith(b"usage: gravswap swap") and done.stdout.endswith(b"\n")) if code == 0 else (
        done.stdout == b"" and b"invalid choice: 'nope'" in done.stderr)
    read, write = os.pipe()
    os.close(read)
    try:
        done = _cli(args, tmp_path, stdout=write)
    finally:
        os.close(write)
    assert done.returncode == code
    assert b"Exception ignored" not in done.stderr and b"Traceback" not in done.stderr, done.stderr


def test_atexit_handlers_run_before_the_exit(tmp_path):
    # coverage.py and logging flush from atexit handlers, which os._exit
    # alone would skip
    flag = tmp_path / "flag"
    code = (
        "import atexit, sys\n"
        f"atexit.register(lambda: open({str(flag)!r}, 'w').close())\n"
        "sys.argv[1:] = ['feasibility', '--out', 'r']\n"
        "import gravswap.cli\n"
        "gravswap.cli.run()\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, cwd=tmp_path, timeout=120)
    assert done.returncode == 0 and flag.exists(), done.stderr
