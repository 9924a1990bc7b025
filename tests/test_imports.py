"""gravswap needs only numpy at run time, and of numpy not numpy.ma: each is
blocked in a fresh interpreter (`sys.modules["scipy"] = None` makes every
import of it fail), and the CLI still runs the grid oracle from start to
end.  Parsing, echoing and refusing a config, and `--help`, need no numpy at
all, and digesting a config no OpenSSL: no run loads `_hashlib` or
`numpy.random` that numpy does not load itself.  Importing gravswap sets
numpy's BLAS to one thread unless the user chose a count; its names load
from their modules on first access."""

import hashlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gravswap
from gravswap.config import KINDS, ExperimentConfig, config_digest, format_config

SRC = Path(__file__).resolve().parents[1] / "src"
README = SRC.parent / "README.md"


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _run_without(module: str, args: list[str], cwd: Path, rc: int = 0) -> str:
    """Runs the CLI with `module` blocked, checks its exit status, and
    returns its stderr."""
    code = (
        "import sys\n"
        f"sys.modules[{module!r}] = None\n"
        "import gravswap.cli\n"
        f"rc = gravswap.cli.main({args!r})\n"
        "sys.exit(rc)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_env(), cwd=cwd)
    assert done.returncode == rc, done.stderr
    return done.stderr


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


NUMPY_FREE = """
import sys
sys.modules["numpy"] = None
import gravswap
import gravswap.cli
from gravswap.config import config_digest, format_config, parse_config, parse_config_text

CONFIGS = {
    "swap": "[params]\\ndelta = 0.1\\n[state]\\nalpha = 2\\nrandom_pairs = 5\\n",
    "rwa_validity": "[sweep]\\nalpha_mags = 1, 2\\ndeltas = 0.01\\n",
    "cat_state": "[params]\\npreset = ca40_ion\\n[state]\\ncat_alpha = 1+1j\\n",
    "feasibility": "[run]\\nplatforms = ca40_ion, bench\\n[platform:bench]\\ndelta = 0.01\\n",
}
for kind, body in CONFIGS.items():
    with open(kind + ".cfg", "w") as fh:
        fh.write("[run]\\nkind = " + kind + "\\n" + body)
    cfg = parse_config(kind + ".cfg")
    assert cfg.kind == kind and parse_config_text(format_config(cfg)) == cfg
    assert config_digest(cfg).startswith("sha256:")
with open("bad.cfg", "w") as fh:
    fh.write("[run]\\nkind = swap\\nsampels = 5\\n")
assert gravswap.cli.main(["swap", "--config", "bad.cfg"]) == 2
print(sorted(m for m in sys.modules if m.startswith("gravswap")))
gravswap.cli.main(["swap", "--help"])
"""


def test_config_and_help_need_no_numpy(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE], capture_output=True, text=True, env=_env(), cwd=tmp_path
    )
    assert done.returncode == 0, done.stderr  # --help exits 0
    assert done.stderr == "error: bad.cfg:3: run.sampels: unknown key\n"
    loaded, _, usage = done.stdout.partition("\n")
    assert loaded == "['gravswap', 'gravswap.cli', 'gravswap.config', 'gravswap.params']"
    assert usage.startswith("usage: gravswap swap")


# OpenSSL's bindings, and numpy.random, which loads them through secrets and hmac
UNNEEDED = ("hashlib", "_hashlib", "numpy.random")


def _loaded(code: str, cwd: Path) -> list[str]:
    """Which of the UNNEEDED modules a fresh interpreter holds after `code`."""
    code += f"\nimport sys\nprint(*[m for m in {UNNEEDED!r} if m in sys.modules])\n"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_env(), cwd=cwd)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1].split()


def test_config_digest_loads_no_openssl(tmp_path):
    # hashlib would load OpenSSL's libcrypto, 3.7 MB of resident memory,
    # to hash a config; this path loads no numpy either, on any numpy
    (tmp_path / "c.cfg").write_text("[run]\nkind = swap\n")
    code = (
        "import sys\n"
        "import gravswap.cli\n"
        "from gravswap.config import config_digest, parse_config\n"
        "cfg = parse_config('c.cfg')\n"
        "assert cfg.source_digest.startswith('sha256:') and config_digest(cfg).startswith('sha256:')\n"
        "assert 'numpy' not in sys.modules\n"
    )
    assert _loaded(code, tmp_path) == []


@pytest.mark.parametrize("args", [
    ["swap", "--config", "swap.cfg", "--oracle", "grid", "--out", "r"],
    ["cat-state", "--out", "r"],
    ["swap", "--config", "pairs.cfg", "--oracle", "ode", "--out", "r"],
], ids=["swap-grid", "cat-state", "swap-ode-pairs"])
def test_run_loads_openssl_only_where_numpy_does(tmp_path, args):
    # numpy < 2 imports numpy.random eagerly, which loads OpenSSL through
    # secrets and hmac; a run adds nothing to what numpy alone loads, and
    # the random pairs come from gravswap's own stream
    (tmp_path / "swap.cfg").write_text("[run]\nkind = swap\n\n[params]\ndelta = 0.1\n")
    (tmp_path / "pairs.cfg").write_text("[run]\nkind = swap\n\n[params]\ndelta = 0.1\n\n[state]\nrandom_pairs = 5\n")
    run = _loaded(f"import gravswap.cli\nassert gravswap.cli.main({args!r}) == 0", tmp_path)
    assert set(run) <= set(_loaded("import numpy", tmp_path))


@pytest.mark.parametrize("kind", KINDS)
def test_config_digest_is_the_sha256_of_the_echo(kind):
    cfg = ExperimentConfig(kind=kind)
    assert config_digest(cfg) == "sha256:" + hashlib.sha256(format_config(cfg).encode()).hexdigest()


@pytest.mark.parametrize("blocked", [(), ("_sha2",), ("_sha2", "_sha256")], ids=["none", "_sha2", "both"])
def test_digest_falls_back_to_the_next_sha256(blocked):
    # _sha2 (3.12+), then _sha256 (3.10, 3.11), then hashlib: the same hex
    code = (
        "import sys\n"
        f"for name in {blocked!r}:\n"
        "    sys.modules[name] = None\n"
        "from gravswap.config import ExperimentConfig, config_digest, format_config, sha256\n"
        "import hashlib\n"
        "cfg = ExperimentConfig(kind='cat_state')\n"
        "assert config_digest(cfg) == 'sha256:' + hashlib.sha256(format_config(cfg).encode()).hexdigest()\n"
        "print(sha256.__module__)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_env(), check=True)
    found = [m for m in ("_sha2", "_sha256") if m not in blocked and importlib.util.find_spec(m)]
    assert done.stdout.strip() == (found[0] if found else hashlib.sha256.__module__)


@pytest.mark.parametrize("command", ["swap", "rwa-validity", "cat-state", "feasibility"])
def test_step_factor_refused_before_numpy_loads(tmp_path, command):
    # the step sizes are constants, so a step factor is refused with its
    # whole section; it and an out-of-range key that every kind reads are
    # refused at the parse, before the runners that import numpy
    kind = command.replace("-", "_")
    (tmp_path / "c.cfg").write_text(f"[run]\nkind = {kind}\n[numerics]\ndt_factor = 5\n")
    err = _run_without("numpy", [command, "--config", "c.cfg", "--out", "r"], tmp_path, rc=2)
    assert err == "error: c.cfg:3: unknown section [numerics]\n"
    (tmp_path / "c.cfg").write_text(f"[run]\nkind = {kind}\nseed = -1\n")
    err = _run_without("numpy", [command, "--config", "c.cfg", "--out", "r"], tmp_path, rc=2)
    assert err == "error: run.seed: must be 0 to 2**64 - 1, got -1\n"
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "command, text, flags, error",
    [
        ("swap", "[params]\ndelta = 0\n", [], "params.delta: the swap experiment needs a positive coupling"),
        ("cat-state", "[params]\ndelta = 0\n", [], "params.delta: the cat-state experiment needs a positive coupling"),
        ("cat-state", "", ["--oracle", "none"], "run.oracle: the cat-state experiment needs the grid oracle (grid or all)"),
        (
            "cat-state",
            "models = sceg\n",
            [],
            "run.models: the cat-state experiment compares sceg with a quantum model; got sceg",
        ),
        (
            "cat-state",
            "models = qg_rwa, qg_full\n",
            [],
            "run.models: the cat-state experiment compares sceg with a quantum model; got qg_rwa, qg_full",
        ),
    ],
    ids=["swap-delta", "cat-delta", "cat-oracle", "cat-sceg-only", "cat-no-sceg"],
)
def test_experiment_refusals_come_before_numpy_loads(tmp_path, command, text, flags, error):
    # what a swap or a cat state needs of its config is checked at the parse,
    # so these refusals name their key with numpy blocked
    (tmp_path / "c.cfg").write_text(f"[run]\nkind = {command.replace('-', '_')}\n{text}")
    err = _run_without("numpy", [command, "--config", "c.cfg", "--out", "r", *flags], tmp_path, rc=2)
    assert err == f"error: {error}\n"
    assert not (tmp_path / "r").exists()


# today's exported names, each with the module that defines it
EXPORTS = {
    "params": [
        "ATOMIC_MASS", "ConfigError", "DimensionlessParams", "GRAVITATIONAL_CONSTANT", "HBAR",
        "ModelKind", "ParameterError", "PhysicalParams", "PLATFORM_PRESETS",
        "derive_dimensionless", "swap_time",
    ],
    "config": [
        "ExperimentConfig", "Platform", "config_digest", "format_config", "parse_config", "parse_config_text",
        "preset_platform",
    ],
    "states": [
        "MOMENT_FIELDS", "MomentError", "cat_pair_entropy", "check_moments",
        "coherent_overlap", "coherent_pair_moments",
        "from_normal_modes", "lab_means", "moments_of_coherent", "to_normal_modes", "two_mode_overlap",
        "uncertainty_product",
    ],
    "analytic": [
        "QuadraticHamiltonian", "mode_hamiltonians", "phase_corrected_pair", "propagate_corrected_displacement",
        "propagate_moments", "propagate_rwa_lab_displacement", "template_generator",
    ],
    "moments_ode": ["IntegrationError", "MomentSeries", "ToleranceError", "integrate_moments"],
    "grid": [
        "CatProduct", "CoherentProduct", "EvolutionError", "GridError", "GridEvolution", "GridSizingError",
        "GridSpec", "GridWavefunction", "auto_grid_spec", "build_initial_grid", "lab_means_from_grid",
        "moments_from_grid", "schmidt_entropy", "split_step_evolve",
    ],
    "experiments": ["ExperimentReport", "Verdict", "run_cat_state", "run_feasibility", "run_rwa_validity", "run_swap"],
    "report": ["ReplayMismatchError", "ReportError", "emit_report"],
}


def test_exports_resolve_to_their_defining_module():
    names = [name for group in EXPORTS.values() for name in group]
    assert sorted(gravswap.__all__) == sorted(names)
    assert set(names) <= set(dir(gravswap))
    for module, group in EXPORTS.items():
        owner = importlib.import_module(f"gravswap.{module}")
        for name in group:
            namespace = {}
            exec(f"from gravswap import {name}", namespace)
            assert namespace[name] is getattr(owner, name), name
            assert getattr(namespace[name], "__module__", owner.__name__) == owner.__name__, name


def test_unknown_export_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gravswap.no_such_name
    with pytest.raises(ImportError):
        from gravswap import no_such_name


def test_readme_library_sketch_runs(tmp_path, monkeypatch, capsys):
    text = README.read_text(encoding="utf-8").split("## Library sketch", 1)[1]
    sketch = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(sketch, "README.md", "exec"), {})
    assert (tmp_path / "runs" / "swap" / "manifest.txt").is_file()
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_empty_platform_ladder_refused_before_numpy_loads(tmp_path):
    # an empty ladder would write a header-only table and pass with no verdicts
    (tmp_path / "c.cfg").write_text("[run]\nkind = feasibility\nplatforms =\n")
    err = _run_without("numpy", ["feasibility", "--config", "c.cfg", "--out", "r"], tmp_path, rc=2)
    assert err == "error: run.platforms: at least one entry required\n"
    assert not (tmp_path / "r").exists()
