"""fork_map runs the independent parts of an experiment in forked processes:
the grid run of each model, and each process's rows of the report CSV files.  The
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
from gravswap.report import CSV_CHUNK_ROWS, csv_spans

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
        (["cat-state"], 2),  # the runs of the three models; entropy.csv's 183 rows are one chunk
        (["swap", "--oracle", "all"], 3),  # three models' grid runs, and one CSV child: moments.csv spans six chunks
    ],
)
def test_forked_report_is_byte_identical(tmp_path, monkeypatch, argv, forks):
    csv_forks = {"cat-state": 0, "swap": 1}[argv[0]]
    _cpus(monkeypatch, 1)
    assert cli_main(argv + ["--out", str(tmp_path / "serial")]) == 0
    _cpus(monkeypatch, 2)
    counted = _count_forks(monkeypatch)
    csv_workers = []

    def fork_map_csv(fn, workers):
        csv_workers.extend(workers)
        return fork_map(fn, workers)

    monkeypatch.setattr(gravswap.report, "fork_map", fork_map_csv)
    assert cli_main(argv + ["--out", str(tmp_path / "forked")]) == 0
    assert len(counted) == forks
    assert len(csv_workers) - 1 == csv_forks
    assert _files(tmp_path / "forked") == _files(tmp_path / "serial")


def _part_files(directory):
    return sorted(p.name for p in directory.iterdir() if p.name.startswith("."))


def test_csv_spans_split_chunks_in_order():
    c = CSV_CHUNK_ROWS
    assert csv_spans(0, 2) == [range(0, 0), range(0, 0)]
    assert csv_spans(c, 3) == [range(0, c), range(c, c), range(c, c)]  # one chunk stays whole
    assert csv_spans(3 * c - 5, 2) == [range(0, 2 * c), range(2 * c, 3 * c - 5)]
    assert csv_spans(4 * c + 1, 3) == [range(0, 2 * c), range(2 * c, 4 * c), range(4 * c, 4 * c + 1)]


def test_forked_emission_splits_each_table_by_rows(tmp_path, monkeypatch):
    # moments.csv holds 3 models x (400 closed + 402 ode) rows, five chunks
    report = run_swap(ExperimentConfig(kind="swap", platform=Platform(delta=0.05), oracle="ode", random_pairs=5))
    _cpus(monkeypatch, 1)
    serial = emit_report(report, tmp_path / "serial")
    _cpus(monkeypatch, 2)
    counted = _count_forks(monkeypatch)
    forked = emit_report(report, tmp_path / "forked")
    assert len(counted) == 1
    assert forked == [tmp_path / "forked" / p.name for p in serial]
    assert _files(tmp_path / "forked") == _files(tmp_path / "serial")
    assert _part_files(tmp_path / "forked") == []


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


def _failing_write_csv(monkeypatch, in_child: bool):
    """write_csv that raises OSError after writing its rows of moments.csv,
    in a forked child or in this process."""
    parent = os.getpid()
    real = gravswap.report.write_csv

    def write_csv(table, fh, lo, hi):
        real(table, fh, lo, hi)
        if table.name == "moments" and (os.getpid() != parent) == in_child:
            raise OSError(f"No space left on device (pid {os.getpid()})")

    monkeypatch.setattr(gravswap.report, "write_csv", write_csv)


def _emitted_then_failing(tmp_path, monkeypatch, in_child: bool):
    # 3 models x 2 modes x 1000 samples: moments.csv spans twelve chunks, six per process
    report = run_swap(ExperimentConfig(kind="swap", platform=Platform(delta=0.05), samples=1000))
    out = tmp_path / "out"
    emit_report(report, out)
    _failing_write_csv(monkeypatch, in_child)
    _cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="No space left on device") as failure:
        emit_report(report, out)
    assert not (out / "manifest.txt").exists()
    assert _part_files(out) == []
    return str(failure.value)


def test_child_write_failure_leaves_no_manifest(tmp_path, monkeypatch):
    error = _emitted_then_failing(tmp_path, monkeypatch, in_child=True)
    assert f"(pid {os.getpid()})" not in error  # raised in the child


def test_parent_write_failure_leaves_no_part(tmp_path, monkeypatch):
    # the child is killed, and the part it wrote is deleted
    error = _emitted_then_failing(tmp_path, monkeypatch, in_child=False)
    assert f"(pid {os.getpid()})" in error
