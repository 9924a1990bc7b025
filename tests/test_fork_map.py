"""fork_map runs the independent parts of an experiment in forked processes:
the grid run of each model, and each group of report CSV files.  The
reports, errors and exit codes are the same as when every part runs in one
process, and no child outlives the call."""

import os
import sys
import time

import pytest

import gravswap.experiments
import gravswap.report
from gravswap import EvolutionError, ExperimentConfig, Platform, emit_report, run_swap
from gravswap.cli import main as cli_main
from gravswap.experiments import cpu_count, fork_map
from gravswap.report import csv_groups

pytestmark = pytest.mark.skipif(sys.platform != "linux" or not hasattr(os, "fork"), reason="needs os.fork on Linux")


def _cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _count_forks(monkeypatch) -> list[int]:
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_fork_map_keeps_order_and_runs_in_children(monkeypatch):
    _cpus(monkeypatch, 2)
    pids = fork_map(lambda i: (i, os.getpid()), range(3))
    assert [i for i, _ in pids] == [0, 1, 2]
    assert pids[0][1] == os.getpid()
    assert len({pid for _, pid in pids}) == 3


def test_fork_map_runs_in_process_on_one_cpu(monkeypatch):
    _cpus(monkeypatch, 1)
    assert cpu_count() == 1
    forks = _count_forks(monkeypatch)
    assert fork_map(lambda i: (i, os.getpid()), range(3)) == [(i, os.getpid()) for i in range(3)]
    assert not forks


def test_cpu_count_is_one_without_fork(monkeypatch):
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(sys, "platform", "darwin")
    assert cpu_count() == 1
    monkeypatch.setattr(sys, "platform", "linux")
    monkeypatch.delattr(os, "fork")
    assert cpu_count() == 1


def test_child_exception_keeps_type_and_message(monkeypatch):
    _cpus(monkeypatch, 2)

    def fn(i):
        if i:
            raise EvolutionError(f"item {i} refused")
        return i

    # both children raise: the first item's error is the one raised, as in order
    with pytest.raises(EvolutionError, match=r"^item 1 refused$"):
        fork_map(fn, range(3))


def test_child_without_a_result_is_an_error(monkeypatch):
    # a result that cannot be pickled never reaches the pipe
    _cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="exited without a result"):
        fork_map(lambda i: (lambda: i), range(2))


def test_parent_item_failure_kills_and_reaps_children(monkeypatch):
    _cpus(monkeypatch, 2)

    def fn(i):
        if i == 0:
            raise ValueError("parent item failed")
        time.sleep(60.0)

    t0 = time.monotonic()
    with pytest.raises(ValueError, match="parent item failed"):
        fork_map(fn, range(3))
    assert time.monotonic() - t0 < 30.0
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "argv, forks",
    [
        (["cat-state"], 1),  # the quantum and mean-field runs; entropy.csv is one group
        (["swap", "--oracle", "all"], 3),  # three models' grid runs, and two CSV groups
    ],
)
def test_forked_report_is_byte_identical(tmp_path, monkeypatch, argv, forks):
    _cpus(monkeypatch, 1)
    assert cli_main(argv + ["--out", str(tmp_path / "serial")]) == 0
    _cpus(monkeypatch, 2)
    counted = _count_forks(monkeypatch)
    assert cli_main(argv + ["--out", str(tmp_path / "forked")]) == 0
    assert len(counted) == forks
    assert _files(tmp_path / "forked") == _files(tmp_path / "serial")


def test_forked_emission_spans_both_groups(tmp_path, monkeypatch):
    report = run_swap(ExperimentConfig(kind="swap", platform=Platform(delta=0.05), samples=12, random_pairs=5))
    groups = csv_groups(report.tables, 2)
    assert len(groups) == 2 and sorted(sum(groups, [])) == sorted(report.tables)
    assert groups[0] == ["moments"]  # the largest table is balanced against the rest
    _cpus(monkeypatch, 1)
    serial = emit_report(report, tmp_path / "serial")
    _cpus(monkeypatch, 2)
    counted = _count_forks(monkeypatch)
    forked = emit_report(report, tmp_path / "forked")
    assert len(counted) == 1
    assert [p.name for p in forked] == [p.name for p in serial]
    assert _files(tmp_path / "forked") == _files(tmp_path / "serial")


@pytest.mark.parametrize("argv", [["swap", "--oracle", "grid"], ["cat-state"]])
def test_second_model_failure_exits_2_with_the_same_error(tmp_path, monkeypatch, capsys, argv):
    real = gravswap.experiments.split_step_evolve
    seen = []

    def evolve(w, model, *args, **kwargs):
        seen.append(model)
        if len(seen) > 1 or os.getpid() != parent:
            raise EvolutionError(f"refused the run of {model.value}")
        return real(w, model, *args, **kwargs)

    parent = os.getpid()
    monkeypatch.setattr(gravswap.experiments, "split_step_evolve", evolve)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"[run]\nkind = {argv[0].replace('-', '_')}\nmodels = qg_rwa, sceg\n\n[params]\ndelta = 0.1\n")
    errors = []
    for n in (1, 2):
        _cpus(monkeypatch, n)
        seen.clear()
        assert cli_main(argv + ["--config", str(cfg), "--out", str(tmp_path / f"r{n}")]) == 2
        errors.append(capsys.readouterr().err)
        assert not (tmp_path / f"r{n}").exists()
    assert errors[0] == errors[1] == "error: refused the run of sceg\n"


def test_child_write_failure_leaves_no_manifest(tmp_path, monkeypatch):
    report = run_swap(ExperimentConfig(kind="swap", platform=Platform(delta=0.05), samples=12))
    out = tmp_path / "out"
    emit_report(report, out)
    child_table = csv_groups(report.tables, 2)[1][0]
    real = gravswap.report.write_csv

    def write_csv(table, fh, *args):
        if table.name == child_table:
            raise OSError(f"No space left on device (pid {os.getpid()})")
        real(table, fh, *args)

    monkeypatch.setattr(gravswap.report, "write_csv", write_csv)
    _cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="No space left on device") as failure:
        emit_report(report, out)
    assert f"(pid {os.getpid()})" not in str(failure.value)  # raised in the child
    assert not (out / "manifest.txt").exists()
