import dataclasses
import hashlib
import importlib.util
import json
import math
import re
from pathlib import Path

import pytest

import gravswap.report
from gravswap import (
    ConfigError,
    ExperimentConfig,
    ModelKind,
    PLATFORM_PRESETS,
    PhysicalParams,
    Platform,
    ReplayMismatchError,
    config_digest,
    derive_dimensionless,
    emit_report,
    format_config,
    parse_config,
    parse_config_text,
    run_feasibility,
    run_swap,
)
from gravswap.cli import main as cli_main
from gravswap.config import CONFIG_KEYS, SI_FIELDS


MINIMAL = """
[run]
kind = swap

[params]
delta = 0.02

[state]
alpha = 1+0i
beta = 0
"""


def test_minimal_config_fills_defaults():
    cfg = parse_config_text(MINIMAL)
    assert cfg.kind == "swap"
    assert cfg.platform == Platform(delta=0.02)
    assert cfg.alpha == 1 + 0j
    assert cfg.samples == 200  # default applied
    assert cfg.oracle == "none"
    assert cfg.models == (ModelKind.QG_RWA, ModelKind.QG_FULL, ModelKind.SCEG)


def test_round_trip_through_echo():
    cfg = parse_config_text(MINIMAL)
    echo = format_config(cfg)
    assert parse_config_text(echo) == cfg
    # a heavily customized config round-trips too
    cfg2 = ExperimentConfig(
        kind="rwa_validity",
        deltas=(0.015, 0.12),
        alpha_mags=(0.5, 7.0),
        beta=0.25 - 1j,
        samples=5001,
        seed=99,
        oracle="ode",
        timestamp="2026-01-01T00:00:00",  # provenance: neither echoed nor digested
    )
    assert parse_config_text(format_config(cfg2)) == cfg2
    assert config_digest(cfg2) == config_digest(parse_config_text(format_config(cfg2)))


def test_delta_out_of_range_rejected():
    with pytest.raises(ConfigError, match="expansion regime violated"):
        parse_config_text(MINIMAL.replace("delta = 0.02", "delta = 0.6"))


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text(MINIMAL + "\nkinda = swap\n")
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config_text(MINIMAL + "\n[exotic]\nx = 1\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text(MINIMAL + "\n[params]\ndelta = 0.01\n")


def test_removed_width_flag_tolerance_rejected():
    # width_flag_rel was a tolerance key; the verdict thresholds are now
    # constants, and the whole [tolerances] section is unknown
    with pytest.raises(ConfigError, match=r"<string>:\d+: unknown section \[tolerances\]"):
        parse_config_text(MINIMAL + "\n[tolerances]\nwidth_flag_rel = 1e-6\n")


def test_cli_refuses_tolerances_section(tmp_path, capsys):
    # the grid verdicts of this run fail at the fixed 1e-5; a section that
    # would loosen them to inf is refused before anything runs
    cfg_path = tmp_path / "c.txt"
    cfg_path.write_text(
        "[run]\nkind = swap\noracle = grid\nmodels = qg_full, sceg\n[params]\ndelta = 0.1\n"
        "[state]\nalpha = 2\nbeta = -1\n"
        "[tolerances]\ngrid_agreement = inf\nwidth_grid = inf\n"
    )
    rc = cli_main(["swap", "--config", str(cfg_path), "--out", str(tmp_path / "r")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: {cfg_path}:10: unknown section [tolerances]\n"
    assert not (tmp_path / "r").exists()


def test_malformed_lines_rejected():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("[run]\nkind swap\n")
    with pytest.raises(ConfigError, match="run.kind is required"):
        parse_config_text("[params]\ndelta = 0.01\n")
    with pytest.raises(ConfigError, match="expected a number"):
        parse_config_text(MINIMAL.replace("0.02", "two"))


def test_preset_expansion_matches_derivation():
    cfg = parse_config_text("[run]\nkind = swap\n\n[params]\npreset = ca40_ion\n")
    assert cfg.platform == Platform(physical=PLATFORM_PRESETS["ca40_ion"])
    assert cfg.platform.dimensionless() == derive_dimensionless(PLATFORM_PRESETS["ca40_ion"])


def test_si_params_block():
    text = """
[run]
kind = swap

[params]
mass_kg = 1e-6
omega_rad_s = 2e4
separation_m = 1e-3
"""
    cfg = parse_config_text(text)
    assert cfg.platform.physical is not None
    assert cfg.platform.physical.mass == 1e-6
    with pytest.raises(ConfigError, match="missing"):
        parse_config_text(text.replace("separation_m = 1e-3", ""))
    with pytest.raises(ConfigError, match="not both"):
        parse_config_text(text + "delta = 0.01\n")


def test_platform_sections():
    text = """
[run]
kind = feasibility
platforms = ca40_ion, bench

[platform:bench]
delta = 0.01
"""
    cfg = parse_config_text(text)
    assert cfg.platforms[0].physical == PLATFORM_PRESETS["ca40_ion"]
    assert cfg.platforms[1] == Platform("bench", delta=0.01)
    assert parse_config_text(format_config(cfg)) == cfg
    with pytest.raises(ConfigError, match="platforms"):
        parse_config_text(text.replace("platforms = ca40_ion, bench", "platforms = ca40_ion"))
    with pytest.raises(ConfigError, match="neither a preset"):
        parse_config_text("[run]\nkind = feasibility\nplatforms = mystery\n")


def test_emit_report_file_set(tmp_path):
    cfg = ExperimentConfig(kind="swap", platform=Platform(delta=0.05), samples=12)
    report = run_swap(cfg)
    paths = emit_report(report, tmp_path / "out")
    names = {p.name for p in paths}
    assert {"manifest.txt", "summary.txt", "moments.csv", "fidelity.csv", "plots.json"} <= names
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    assert config_digest(cfg) in manifest
    assert "timestamp = (unset)" in manifest
    # every tolerance named by a verdict is recorded
    for v in report.verdicts:
        assert f"threshold {v.name}" in manifest


def test_emit_is_byte_identical(tmp_path):
    cfg = ExperimentConfig(kind="feasibility")
    report = run_feasibility(cfg)
    first = {p.name: p.read_bytes() for p in emit_report(report, tmp_path / "a")}
    again = {p.name: p.read_bytes() for p in emit_report(run_feasibility(cfg), tmp_path / "a")}
    other_dir = {p.name: p.read_bytes() for p in emit_report(run_feasibility(cfg), tmp_path / "b")}
    assert first == again == other_dir


def test_replay_mismatch_guard(tmp_path):
    out = tmp_path / "out"
    emit_report(run_feasibility(ExperimentConfig(kind="feasibility")), out)
    other = ExperimentConfig(kind="feasibility", seed=123)
    with pytest.raises(ReplayMismatchError):
        emit_report(run_feasibility(other), out)
    emit_report(run_feasibility(other), out, force=True)  # explicit override allowed


def test_stamp_changes_only_the_manifest_timestamp(tmp_path):
    # the timestamp is provenance, not input: a stamped run writes the bytes
    # of an unstamped one but the manifest's timestamp line, replays into its
    # own directory, and still refuses another config's
    plain, stamped = tmp_path / "plain", tmp_path / "stamped"
    assert cli_main(["feasibility", "--out", str(plain)]) == 0
    assert cli_main(["feasibility", "--stamp", "--out", str(stamped)]) == 0
    assert cli_main(["feasibility", "--stamp", "--out", str(stamped)]) == 0
    files = sorted(p.name for p in plain.iterdir())
    assert sorted(p.name for p in stamped.iterdir()) == files
    for name in files:
        data = (stamped / name).read_bytes()
        if name == "manifest.txt":
            data, n = re.subn(rb"^timestamp = \d{4}-\d\d-\d\dT[\d:.]+\+00:00$", b"timestamp = (unset)", data,
                              flags=re.M)
            assert n == 1
        assert data == (plain / name).read_bytes(), name
    assert cli_main(["feasibility", "--seed", "1", "--out", str(stamped)]) == 3


@pytest.mark.parametrize("key", ["out", "timestamp"])
def test_run_out_and_timestamp_are_no_keys(tmp_path, capsys, key):
    # the report directory is --out and the timestamp --stamp; neither is an
    # input of the run, so a config may not set them
    path = tmp_path / "c.txt"
    path.write_text(f"[run]\nkind = feasibility\n{key} = x\n")
    assert cli_main(["feasibility", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err == f"error: {path}:3: run.{key}: unknown key\n"
    assert not (tmp_path / "r").exists()


def test_manifest_is_written_last(tmp_path, monkeypatch):
    # a manifest implies a complete report: an emission that fails partway
    # leaves none, not even the one of an earlier run
    report = run_swap(ExperimentConfig(kind="swap", platform=Platform(delta=0.05), samples=12))
    out = tmp_path / "out"
    assert emit_report(report, out)[-1].name == "manifest.txt"

    def fail(table, out, *args):
        out.write(",".join(table.columns) + "\n")
        raise OSError("No space left on device")

    monkeypatch.setattr(gravswap.report, "write_csv", fail)
    with pytest.raises(RuntimeError, match="No space left"):
        emit_report(report, out)
    assert not (out / "manifest.txt").exists()


@pytest.mark.parametrize("out", ["file", "file/sub", "other"])
def test_cli_refuses_unwritable_out(tmp_path, capsys, out):
    # a regular file, a path below one, and a directory holding another
    # config's report: each is refused with an error line and the status of
    # an output directory at fault, not a traceback
    (tmp_path / "file").write_text("")
    assert cli_main(["feasibility", "--out", str(tmp_path / "other"), "--seed", "1"]) == 0
    capsys.readouterr()
    assert cli_main(["feasibility", "--out", str(tmp_path / out)]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_source_digest_recorded(tmp_path):
    # the digest is the hash of the file's bytes; a byte order mark, before a
    # section or a key, and CRLF line ends parse like the plain file
    path = tmp_path / "cfg.txt"
    key_first = MINIMAL.strip().removeprefix("[run]\n")
    for text in (MINIMAL, key_first):
        for data in (text.encode(), b"\xef\xbb\xbf" + text.encode(), text.replace("\n", "\r\n").encode()):
            path.write_bytes(data)
            cfg = parse_config(path)
            assert cfg.source_digest == "sha256:" + hashlib.sha256(data).hexdigest()
            # digest is metadata, not identity
            assert cfg == parse_config_text(MINIMAL)


def test_cat_report_has_entropy_csv(tmp_path):
    from gravswap import run_cat_state

    cfg = ExperimentConfig(
        kind="cat_state", platform=Platform(delta=0.1), cat_alpha=1.2 + 0j, oracle="grid", samples=4
    )
    report = run_cat_state(cfg)
    paths = emit_report(report, tmp_path)
    names = {p.name for p in paths}
    assert "entropy.csv" in names
    header = (tmp_path / "entropy.csv").read_text().splitlines()[0]
    assert header.split(",")[:3] == ["t", "model", "entropy"]
    assert "purity" in header


def test_default_cat_state_report_prints_no_negative_zero(tmp_path):
    # a product state's entropy is +0, so no cell or verdict reads -0
    assert cli_main(["cat-state", "--out", str(tmp_path)]) == 0
    cells = [cell for line in (tmp_path / "entropy.csv").read_text().splitlines() for cell in line.split(",")]
    assert "0" in cells and "-0" not in cells
    summary = (tmp_path / "summary.txt").read_text()
    assert "initial_product_entropy: observed 0 " in summary and "observed -0" not in summary


@pytest.mark.parametrize("flags", [[], ["--oracle", "all"], ["--oracle", "ode"]], ids=["none", "all", "ode"])
def test_swap_reports_print_no_negative_zero(tmp_path, flags):
    # a coherent state's closed-form covariance V_xp is 0, which rounding
    # can sign; every model runs, so each closed, ode and grid row is read
    assert cli_main(["swap", *flags, "--out", str(tmp_path)]) == 0
    tables = sorted(tmp_path.glob("*.csv"))
    assert {path.name for path in tables} >= {"moments.csv", "fidelity.csv", "displacement.csv"}
    for path in tables:
        cells = [cell for line in path.read_text().splitlines() for cell in line.split(",")]
        assert "-0" not in cells, path.name
        if path.name == "moments.csv":
            assert "0" in cells  # the zeros are there, unsigned


def test_non_utf8_config_is_refused(tmp_path, capsys):
    path = tmp_path / "c.cfg"
    path.write_bytes(b"[run]\nkind = swap  # \xff\xfe\n")
    with pytest.raises(ConfigError, match=rf"^cannot read config {re.escape(str(path))}: 'utf-8' codec"):
        parse_config(path)
    assert cli_main(["swap", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read config {path}: ")
    assert not (tmp_path / "r").exists()


def test_non_utf8_manifest_is_refused_unless_forced(tmp_path, capsys):
    # a manifest that is not UTF-8 was not written by gravswap: refused like
    # another configuration's, with exit 3, and overwritten under --force
    out = tmp_path / "r"
    out.mkdir()
    (out / "manifest.txt").write_bytes(b"config_digest = \xff\n")
    with pytest.raises(ReplayMismatchError, match="manifest is not UTF-8"):
        emit_report(run_feasibility(ExperimentConfig(kind="feasibility")), out)
    assert cli_main(["feasibility", "--out", str(out)]) == 3
    assert "existing manifest is not UTF-8" in capsys.readouterr().err
    assert cli_main(["feasibility", "--out", str(out), "--force"]) == 0
    assert "config_digest = sha256:" in (out / "manifest.txt").read_text(encoding="utf-8")


def test_plot_bundle_references_emitted_data(tmp_path):
    import json

    cfg = ExperimentConfig(kind="swap", platform=Platform(delta=0.05), samples=10)
    paths = emit_report(run_swap(cfg), tmp_path)
    names = {p.name for p in paths}
    bundle = json.loads((tmp_path / "plots.json").read_text())
    assert bundle["figures"], "swap report should describe at least one figure"
    for fig in bundle["figures"]:
        assert fig["csv"] in names
        header = (tmp_path / fig["csv"]).read_text().splitlines()[0].split(",")
        assert fig["x"] in header
        for col in fig["y"]:
            assert col in header


def test_cli_feasibility(tmp_path, capsys):
    rc = cli_main(["feasibility", "--out", str(tmp_path / "run")])
    assert rc == 0
    assert (tmp_path / "run" / "manifest.txt").exists()
    out = capsys.readouterr().out
    assert "PASS" in out


@pytest.mark.parametrize("command", ["swap", "rwa-validity", "cat-state", "feasibility"])
def test_cli_default_config_passes(tmp_path, monkeypatch, command):
    # every subcommand run with no config and no options, as shipped, passes
    # its own verdicts and writes its report under ./runs
    monkeypatch.chdir(tmp_path)
    assert cli_main([command]) == 0
    assert (tmp_path / "runs" / command.replace("-", "_") / "manifest.txt").exists()


def test_cat_state_oracle_defaults_to_grid():
    # a cat state has only the grid to run on: with no oracle given it uses
    # that, the echo says so and parses back to itself; an explicit none is
    # refused at the parse, by name
    assert ExperimentConfig(kind="cat_state").oracle == "grid"
    assert ExperimentConfig(kind="swap").oracle == "none"
    cfg = parse_config_text("[run]\nkind = cat_state\n")
    assert cfg.oracle == "grid"
    echo = format_config(cfg)
    assert "oracle = grid\n" in echo
    assert parse_config_text(echo) == cfg and format_config(parse_config_text(echo)) == echo
    with pytest.raises(ConfigError, match=r"^run\.oracle: the cat-state experiment needs the grid oracle"):
        parse_config_text("[run]\nkind = cat_state\noracle = none\n")


def test_cli_kind_mismatch(tmp_path):
    cfg_path = tmp_path / "c.txt"
    cfg_path.write_text(MINIMAL)
    rc = cli_main(["feasibility", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert rc == 2


def test_cli_seed_override(tmp_path):
    cfg_path = tmp_path / "c.txt"
    cfg_path.write_text(MINIMAL + "\nrandom_pairs = 3\n")
    rc = cli_main(["swap", "--config", str(cfg_path), "--out", str(tmp_path / "r"), "--seed", "7"])
    assert rc == 0
    manifest = (tmp_path / "r" / "manifest.txt").read_text()
    assert "seed = 7" in manifest


def test_cli_refuses_physical_scale_grid_run(tmp_path, capsys):
    # a ca40 swap needs ~1e18 grid steps: refused as a config error naming
    # the coupling, not a numpy traceback
    cfg_path = tmp_path / "c.txt"
    cfg_path.write_text("[run]\nkind = swap\nmodels = qg_full\n[params]\npreset = ca40_ion\n")
    rc = cli_main(["swap", "--config", str(cfg_path), "--out", str(tmp_path / "r"), "--oracle", "grid"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: params.delta: ")


def test_cli_refuses_physical_scale_ode_run(tmp_path, capsys):
    # a ca40 swap needs ~1e20 RK4 steps: refused naming the coupling, with
    # the config-error status rather than a traceback
    cfg_path = tmp_path / "c.txt"
    cfg_path.write_text("[run]\nkind = swap\nmodels = qg_full\n[params]\npreset = ca40_ion\n")
    rc = cli_main(["swap", "--config", str(cfg_path), "--out", str(tmp_path / "r"), "--oracle", "ode"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: params.delta: ")


@pytest.mark.parametrize(
    "numerics,key",
    [
        ("grid_points = 128", "numerics.grid_points"),  # too few points for the state
        ("grid_points = 100", "numerics.grid_points"),  # likewise, and not a fast FFT length
        ("grid_points = 255", "numerics.grid_points"),  # enough points, but odd
        ("grid_half_extent = 5", "numerics.grid_half_extent"),  # the state does not fit
    ],
)
def test_cli_refuses_bad_grid_size(tmp_path, capsys, numerics, key):
    # the box is sized from the state alone and the step is a constant: a
    # config that still gives a grid size is refused with the config-error
    # status rather than a traceback, whether or not that size could hold
    # the state, by the section that held the key
    cfg_path = tmp_path / "c.txt"
    cfg_path.write_text(f"[run]\nkind = swap\nmodels = qg_full\n[state]\nalpha = 6\n[numerics]\n{numerics}\n")
    rc = cli_main(["swap", "--config", str(cfg_path), "--out", str(tmp_path / "r"), "--oracle", "grid"])
    assert rc == 2
    section = key.split(".")[0]
    assert capsys.readouterr().err == f"error: {cfg_path}:6: unknown section [{section}]\n"


_SI_KEYS_TEXT = "mass_kg = 1e-6\nomega_rad_s = 2e4\nseparation_m = 1e-3\n"
# SI keys whose delta = G m / (d^3 omega^2) is 66743, far beyond 1/2
_SI_DELTA_66743 = "mass_kg = 1000\nomega_rad_s = 1e-6\nseparation_m = 1\n"
_LADDER_B = "[run]\nkind = feasibility\nplatforms = b\n[platform:b]\n"


@pytest.mark.parametrize(
    "command,text,key",
    [
        # counts whose arrays numpy cannot allocate: refused by the sample budgets
        ("swap", "[run]\nkind = swap\nsamples = 3000000000\n", "run.samples"),
        ("swap", "[run]\nkind = swap\n[state]\nrandom_pairs = 100000000000\n", "state.random_pairs"),
        # non-finite sweeps: rows of inf/nan, or a division by a zero coupling
        ("rwa-validity", "[run]\nkind = rwa_validity\n[sweep]\nalpha_mags = 1, inf\n", "sweep.alpha_mags"),
        ("rwa-validity", "[run]\nkind = rwa_validity\n[sweep]\ndeltas = 0\n", "sweep.deltas"),
        ("rwa-validity", "[run]\nkind = rwa_validity\n[sweep]\ndeltas = 1e-320\n", "sweep.deltas"),
        # a coupling whose swap time pi/(2 delta) overflows to inf
        ("swap", "[run]\nkind = swap\n[params]\ndelta = 1e-320\n", "params.delta"),
        ("cat-state", "[run]\nkind = cat_state\n[params]\ndelta = 1e-320\n", "params.delta"),
        # a value out of range names the key that gave it, not the field it sets
        ("swap", "[run]\nkind = swap\n[params]\n" + _SI_KEYS_TEXT.replace("1e-6", "-1"), "params.mass_kg"),
        ("swap", "[run]\nkind = swap\n[params]\n" + _SI_KEYS_TEXT.replace("2e4", "0"), "params.omega_rad_s"),
        ("swap", "[run]\nkind = swap\n[params]\n" + _SI_KEYS_TEXT.replace("1e-3", "-1"), "params.separation_m"),
        ("rwa-validity", "[run]\nkind = rwa_validity\n[sweep]\ndeltas = 0.01, 0.6\n", "sweep.deltas"),
        ("feasibility", _LADDER_B + "delta = 0.6\n", "platform:b.delta"),
        # a coupling the SI keys derive has no key: its block is named
        ("swap", "[run]\nkind = swap\n[params]\n" + _SI_DELTA_66743, "params"),
        ("feasibility", _LADDER_B + _SI_DELTA_66743, "platform:b"),
        # SI keys whose swap time overflows in seconds (delta omega = 4.3e-309),
        # or in 1/omega (delta = 9.7e-311), though the other is finite
        ("feasibility", _LADDER_B + "mass_kg = 1e6\nomega_rad_s = 1e-3\nseparation_m = 2.5e102\n", "platform:b"),
        ("swap", "[run]\nkind = swap\n[params]\nmass_kg = 1e-30\nomega_rad_s = 1e10\nseparation_m = 1.9e83\n",
         "params"),
        # a model listed twice would run every series twice
        ("swap", "[run]\nkind = swap\nmodels = sceg, sceg\n", "run.models"),
        # a cat state compares a quantum model with the mean-field one
        ("cat-state", "[run]\nkind = cat_state\nmodels = sceg\n", "run.models"),
        ("cat-state", "[run]\nkind = cat_state\nmodels = qg_full, qg_rwa\n", "run.models"),
        # rwa_validity sweeps sweep.deltas: a [params] block would have no effect
        ("rwa-validity", "[run]\nkind = rwa_validity\n[params]\ndelta = 0.3\n", "params.delta"),
        # keys that no longer exist: G and hbar are constants, and a direct
        # delta needs no trap frequency since every time but feasibility's is
        # in 1/omega; each is refused by name, wherever it is given
        ("swap", "[run]\nkind = swap\n[params]\ndelta = 0.1\nomega = 1\n", "params.omega"),
        ("feasibility", _LADDER_B + "delta = 0.1\nomega = 1\n", "platform:b.omega"),
        ("swap", "[run]\nkind = swap\n[params]\n" + _SI_KEYS_TEXT + "grav_constant = 7e-11\n", "params.grav_constant"),
        ("feasibility", _LADDER_B + _SI_KEYS_TEXT + "hbar = 1.1e-34\n", "platform:b.hbar"),
        # a pair whose photon number |alpha|^2 + |beta|^2 overflows: rows of
        # nan, or an OverflowError in the fidelity bound; the larger is named
        ("swap", "[run]\nkind = swap\nmodels = qg_full\n[state]\nalpha = 1.7e308\n", "state.alpha"),
        ("swap", "[run]\nkind = swap\n[state]\nalpha = 1e200\n", "state.alpha"),
        ("swap", "[run]\nkind = swap\n[state]\nalpha = 1\nbeta = 1e200\n", "state.beta"),
        # a swept magnitude whose photon number mag^2 + |beta|^2 overflows: rows of nan
        ("rwa-validity", "[run]\nkind = rwa_validity\n[sweep]\nalpha_mags = 1, 1.7e308\n", "sweep.alpha_mags"),
        ("rwa-validity", "[run]\nkind = rwa_validity\n[state]\nbeta = 1e154\n[sweep]\nalpha_mags = 1e154\n",
         "sweep.alpha_mags"),
        # means so large that the RK4 oracle's absolute error bound fails
        ("swap", "[run]\nkind = swap\noracle = ode\nmodels = qg_full\n[state]\nalpha = 1e6\n",
         "state.alpha, state.beta"),
    ],
    ids=[
        "samples",
        "random_pairs",
        "alpha_mags_inf",
        "deltas_zero",
        "deltas_tiny",
        "swap_delta",
        "cat_delta",
        "mass_kg",
        "omega_rad_s",
        "separation_m",
        "sweep_delta",
        "platform_delta",
        "si_delta",
        "platform_si_delta",
        "platform_si_swap_seconds",
        "si_swap_time",
        "repeated_model",
        "cat_models_without_quantum",
        "cat_models_without_sceg",
        "rwa_params",
        "params_omega",
        "platform_omega",
        "grav_constant",
        "platform_hbar",
        "alpha_overflow_qg_full",
        "alpha_overflow",
        "beta_overflow",
        "alpha_mags_overflow",
        "alpha_mags_overflow_with_beta",
        "ode_tolerance",
    ],
)
def test_cli_refuses_unrunnable_input_by_key(tmp_path, capsys, command, text, key):
    cfg_path = tmp_path / "c.txt"
    cfg_path.write_text(text)
    rc = cli_main([command, "--config", str(cfg_path), "--out", str(tmp_path / "r")])
    assert rc == 2
    err = capsys.readouterr().err
    # an unknown key is refused with its file and line before its name
    assert re.match(rf"error: ({re.escape(str(cfg_path))}:\d+: )?{re.escape(key)}: ", err)
    assert "Traceback" not in err
    assert not (tmp_path / "r").exists()


def test_swap_report_time_is_scaled_at_physical_scale(tmp_path):
    # moments.csv writes time in 1/omega, the unit plots.json labels it
    # with, for SI parameters too: a ca40 swap ends at pi/(2 delta), not at
    # that time in seconds
    cfg_path = tmp_path / "c.txt"
    cfg_path.write_text("[run]\nkind = swap\n[params]\npreset = ca40_ion\n")
    rc = cli_main(["swap", "--config", str(cfg_path), "--out", str(tmp_path / "r"), "--oracle", "none"])
    assert rc in (0, 1)  # the closed forms lose the beat to rounding at this delta
    delta = derive_dimensionless(PLATFORM_PRESETS["ca40_ion"]).delta
    last = (tmp_path / "r" / "moments.csv").read_text().splitlines()[-1]
    assert float(last.split(",")[0]) == math.pi / (2.0 * delta)
    figure = json.loads((tmp_path / "r" / "plots.json").read_text())["figures"][0]
    assert (figure["csv"], figure["x"], figure["xlabel"]) == ("moments.csv", "t", "t (1/omega)")


def test_cli_runs_largest_finite_pair(tmp_path, capsys):
    # |alpha|^2 + |beta|^2 = 2e300 is still finite: the pair runs to a
    # report with no nan cell (verdicts this near the float limit may fail
    # from rounding, so only the run itself is checked)
    cfg_path = tmp_path / "c.txt"
    cfg_path.write_text("[run]\nkind = swap\n[state]\nalpha = 1e150\nbeta = -1e150\n")
    rc = cli_main(["swap", "--config", str(cfg_path), "--out", str(tmp_path / "r"), "--oracle", "none"])
    assert rc in (0, 1)
    assert "Traceback" not in capsys.readouterr().err
    csvs = sorted((tmp_path / "r").glob("*.csv"))
    assert csvs and (tmp_path / "r" / "manifest.txt").exists()
    for csv in csvs:
        assert "nan" not in csv.read_text().lower(), csv.name


def test_cli_sweeps_largest_finite_magnitude(tmp_path, capsys):
    # 1.34e154^2 = 1.8e308 is still finite: the sweep runs clean, no nan cell
    cfg_path = tmp_path / "c.txt"
    cfg_path.write_text("[run]\nkind = rwa_validity\n[sweep]\nalpha_mags = 1, 1.34e154\n")
    assert cli_main(["rwa-validity", "--config", str(cfg_path), "--out", str(tmp_path / "r")]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert "nan" not in (tmp_path / "r" / "validity.csv").read_text().lower()


def _refuse_allocation(*args, **kwargs):
    raise AssertionError("a grid the sizing rule refuses reached the allocating code")


@pytest.mark.parametrize(
    "command,text",
    [
        ("swap", "[run]\nkind = swap\nmodels = qg_full\n[state]\nalpha = 1000\n"),
        ("cat-state", "[run]\nkind = cat_state\n[state]\ncat_alpha = 1000\n"),
        # an amplitude whose box overflows to an infinite half extent
        ("cat-state", "[run]\nkind = cat_state\n[state]\ncat_alpha = 1.7e308\n"),
    ],
)
def test_cli_refuses_grid_beyond_memory_budget(tmp_path, capsys, monkeypatch, command, text):
    # refused from the size of the box the state needs alone, naming the
    # state and the coupling; the allocating functions are replaced so that
    # a missing refusal fails here instead of allocating 27 TiB
    monkeypatch.setattr("gravswap.experiments.build_initial_grid", _refuse_allocation)
    monkeypatch.setattr("gravswap.experiments.split_step_evolve", _refuse_allocation)
    cfg_path = tmp_path / "c.txt"
    cfg_path.write_text(text)
    rc = cli_main([command, "--config", str(cfg_path), "--out", str(tmp_path / "r"), "--oracle", "grid"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: state: ") and "delta = 0.05" in err and "GiB per complex array" in err
    assert not (tmp_path / "r").exists()


def test_non_finite_amplitude_refused():
    with pytest.raises(ConfigError, match="state.cat_alpha"):
        parse_config_text("[run]\nkind = cat_state\n[state]\ncat_alpha = inf\n")


_ECHO_RUN = "[run]\nkind = {kind}\nseed = 0\noracle = none\nsamples = 200\nmodels = qg_rwa, qg_full, sceg\n"
_ECHO_DEFAULTS = """
[state]
alpha = 1+0j
beta = 0+0j
cat_alpha = 2+0j
random_pairs = 0

[sweep]
alpha_mags = 1, 10, 100
deltas = 0.01, 0.050000000000000003, 0.10000000000000001
"""
_ECHO_CA40 = """
mass_kg = 6.6421562664000002e-26
omega_rad_s = 1000000
separation_m = 1e-10
"""


@pytest.mark.parametrize(
    "text,echo",
    [
        (
            "[run]\nkind = swap\n[params]\npreset = ca40_ion\n",
            _ECHO_RUN.format(kind="swap") + "\n[params]" + _ECHO_CA40 + _ECHO_DEFAULTS,
        ),
        (
            "[run]\nkind = swap\n[params]\nmass_kg = 1e-6\nomega_rad_s = 2e4\nseparation_m = 1e-3\n",
            _ECHO_RUN.format(kind="swap")
            + "\n[params]\nmass_kg = 9.9999999999999995e-07\nomega_rad_s = 20000\nseparation_m = 0.001\n"
            + _ECHO_DEFAULTS,
        ),
        (
            # feasibility reads the platform ladder, not [params]
            "[run]\nkind = feasibility\nplatforms = ca40_ion, bench\n[platform:bench]\ndelta = 0.01\n",
            _ECHO_RUN.format(kind="feasibility")
            + "platforms = ca40_ion, bench\n"
            + _ECHO_DEFAULTS
            + "\n[platform:ca40_ion]"
            + _ECHO_CA40
            + "\n[platform:bench]\ndelta = 0.01\n",
        ),
    ],
    ids=["preset", "si", "feasibility"],
)
def test_echo_bytes_pinned(text, echo):
    # the literal canonical echo: config.echo.txt and the manifest digest
    # depend on every byte of it
    assert format_config(parse_config_text(text)) == echo


def test_platform_block_the_kind_never_reads_is_refused():
    # a [params] block would have no effect on a feasibility or rwa_validity
    # report, nor a platform ladder on any other kind but feasibility: each
    # is refused by its key and the kind
    ladder = "[run]\nkind = feasibility\nplatforms = ca40_ion\n"
    with pytest.raises(ConfigError, match=r"params\.delta: a feasibility run never reads \[params\]"):
        parse_config_text(ladder + "[params]\ndelta = 0.1\n")
    with pytest.raises(ConfigError, match=r"params\.delta: a rwa_validity run never reads \[params\]; .* sweep\.deltas"):
        parse_config_text("[run]\nkind = rwa_validity\n[params]\ndelta = 0.3\n")
    assert "[params]" not in format_config(ExperimentConfig(kind="rwa_validity"))
    for kind in ("swap", "cat_state", "rwa_validity"):
        with pytest.raises(ConfigError, match=f"run.platforms: a {kind} run never reads a platform ladder"):
            parse_config_text(f"[run]\nkind = {kind}\nplatforms = bench\n[platform:bench]\ndelta = 0.01\n")
    assert parse_config_text(ladder).platforms[0].name == "ca40_ion"
    assert parse_config_text(MINIMAL).platform.delta == 0.02


@pytest.mark.parametrize(
    "params,key",
    [
        ("preset = ca40_ion\nomega = 2\n", "params.omega"),
        (_SI_KEYS_TEXT + "omega = 2\n", "params.omega"),
        ("delta = 0.1\ngrav_constant = 7e-11\n", "params.grav_constant"),
        ("delta = 0.1\nhbar = 1.1e-34\n", "params.hbar"),
    ],
    ids=["preset_omega", "si_omega", "delta_grav_constant", "delta_hbar"],
)
def test_params_refuses_leftover_key(params, key):
    with pytest.raises(ConfigError, match=key):
        parse_config_text("[run]\nkind = swap\n[params]\n" + params)


_BENCH = "[run]\nkind = feasibility\nplatforms = ca40_ion, x\n[platform:x]\n"


def test_platform_refuses_preset_with_delta():
    with pytest.raises(ConfigError, match="platform:x.delta"):
        parse_config_text(_BENCH + "preset = ca40_ion\ndelta = 0.1\n")


def test_platform_refuses_duplicate_key():
    with pytest.raises(ConfigError, match="platform:x.delta: duplicate key"):
        parse_config_text(_BENCH + "delta = 0.1\ndelta = 0.2\n")


def test_platforms_refuses_duplicate_name():
    with pytest.raises(ConfigError, match="run.platforms: 'x' is listed twice"):
        parse_config_text(_BENCH.replace("ca40_ion, x", "x, x") + "delta = 0.1\n")


def test_platform_section_may_not_shadow_preset(tmp_path, capsys):
    cfg_path = tmp_path / "c.txt"
    cfg_path.write_text("[run]\nkind = feasibility\nplatforms = ca40_ion\n[platform:ca40_ion]\ndelta = 0.1\n")
    rc = cli_main(["feasibility", "--config", str(cfg_path), "--out", str(tmp_path / "r")])
    assert rc == 2
    assert "platform:ca40_ion" in capsys.readouterr().err


def test_repeated_model_is_refused():
    # a model listed twice would run every series twice and fork a second
    # grid run; refused like a platform listed twice
    with pytest.raises(ConfigError, match="run.models: 'sceg' is listed twice"):
        ExperimentConfig(models=(ModelKind.SCEG, ModelKind.QG_FULL, ModelKind.SCEG))


def test_key_table_covers_the_schema():
    # every config field but the coupling blocks has one row of the key
    # table, and the echo writes each row's key in its section and every SI
    # field; a field left out of parse or echo fails here
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    rows = [name for _, _, name, _, _ in CONFIG_KEYS]
    assert sorted(rows) == sorted(fields - {"platform", "platforms", "source_digest", "timestamp"})
    assert set(SI_FIELDS.values()) == {f.name for f in dataclasses.fields(PhysicalParams)}
    ca40 = Platform(physical=PLATFORM_PRESETS["ca40_ion"])
    cfg = ExperimentConfig(kind="swap", platform=ca40)
    echoed = {}
    for block in format_config(cfg).split("\n\n"):
        head, *lines = block.strip().split("\n")
        echoed[head.strip("[]")] = [line.split(" = ")[0] for line in lines]
    assert echoed["params"] == list(SI_FIELDS)
    for section, key, *_ in CONFIG_KEYS:
        assert key in echoed[section]


README = Path(__file__).resolve().parents[1] / "README.md"
# a backticked `section.key`; a file name (`manifest.txt`) or a dotted name
# under an importable module (`gravswap.config`, `numpy.fft`) is no key
_KEY_MENTION = re.compile(r"`([a-z]+)\.([a-z][a-z_]*)(?=[` ])")


def test_readme_keys_match_the_parser():
    # every key the README names is one the parser knows, and every key of
    # the key table is named in the README
    mentions = {
        (section, key)
        for section, key in _KEY_MENTION.findall(README.read_text(encoding="utf-8"))
        if key not in ("csv", "json", "txt") and importlib.util.find_spec(section) is None
    }
    for section, key in sorted(mentions):
        try:
            parse_config_text(f"[{section}]\n{key} = 0\n")
        except ConfigError as exc:
            assert not re.search("unknown (key|section)", str(exc)), f"README names `{section}.{key}`: {exc}"
    assert {(section, key) for section, key, *_ in CONFIG_KEYS} <= mentions
