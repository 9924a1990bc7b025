"""Mutant runs: each test plants one small physics fault in-process, runs the
CLI on a default config and asserts that some verdict FAILs, naming the
verdict expected to catch the fault.  A fault that every verdict passes is a
gap in the checks.  The children that `fork_map` forks inherit the patch, so
a fault reaches the grid runs and the report writers too."""

import re

import numpy as np

from gravswap import ModelKind, analytic, experiments
from gravswap.cli import main as cli_main

_FAIL = re.compile(r"^\s+\[FAIL\] (\S+):", re.M)


def _failed_verdicts(capsys, tmp_path, argv) -> list[str]:
    rc = cli_main([*argv, "--out", str(tmp_path / "r")])
    failed = _FAIL.findall(capsys.readouterr().out)
    assert rc == (1 if failed else 0)
    return failed


def _replace_propagate_moments(monkeypatch, fn) -> None:
    """Replace the closed-form moment map wherever a run reads it."""
    monkeypatch.setattr(analytic, "propagate_moments", fn)
    monkeypatch.setattr(experiments, "propagate_moments", fn)


def test_qg_full_covariance_without_breathing(tmp_path, capsys, monkeypatch):
    # the exact model's closed-form covariance rotates at the bare frequency,
    # as the mean-field one does, so coherent widths stop breathing
    propagate = analytic.propagate_moments

    def mutant(model, init, times, params):
        records = propagate(model, init, times, params)
        if model is ModelKind.QG_FULL:
            records[..., 2:] = propagate(ModelKind.SCEG, init, times, params)[..., 2:]
        return records

    _replace_propagate_moments(monkeypatch, mutant)
    assert "qg_full_ode_cov_agreement" in _failed_verdicts(capsys, tmp_path, ["swap", "--oracle", "ode"])


def test_cat_oracle_time_shifted(tmp_path, capsys, monkeypatch):
    # the branch oracle runs 0.1% fast; the last record sits at the entropy
    # maximum, where the shift is second order, so only the series sees it
    propagate = experiments.propagate_rwa_lab_displacement

    def mutant(alpha, beta, t, params):
        return propagate(alpha, beta, 1.001 * np.asarray(t), params)

    monkeypatch.setattr(experiments, "propagate_rwa_lab_displacement", mutant)
    failed = _failed_verdicts(capsys, tmp_path, ["cat-state", "--oracle", "grid"])
    assert "entropy_matches_branch_oracle_series" in failed


def test_exact_map_without_counter_rotating_terms(tmp_path, capsys, monkeypatch):
    # the exact model's closed form is the number-conserving one
    propagate = analytic.propagate_moments

    def mutant(model, init, times, params):
        return propagate(ModelKind.QG_RWA if model is ModelKind.QG_FULL else model, init, times, params)

    _replace_propagate_moments(monkeypatch, mutant)
    failed = _failed_verdicts(capsys, tmp_path, ["rwa-validity"])
    assert any(name.startswith("deviation_law_") for name in failed)
