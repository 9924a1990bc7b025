"""The config echo is the config as its kind reads it:
parse_config_text(format_config(cfg)) == cfg over generated configurations,
up to the platform block the kind never reads, including both forms of the
grid size (auto and an explicit even count), and direct, preset and free SI
parameters in both the [params] block and platform sections.  A negative
seed is refused, from a config file and from --seed alike."""

import dataclasses
import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gravswap import ConfigError, ExperimentConfig, ModelKind, PhysicalParams, Platform, Tolerances, format_config, parse_config_text
from gravswap.cli import main as cli_main
from gravswap.experiments import KINDS, ORACLES
from gravswap.params import DELTA_WARN_LIMIT, PLATFORM_PRESETS

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
positive = st.floats(min_value=1e-12, max_value=1e6, allow_nan=False)
deltas = st.floats(min_value=1e-9, max_value=DELTA_WARN_LIMIT)
amplitudes = st.builds(complex, finite, finite)
model_orders = [perm for r in (1, 2, 3) for perm in itertools.permutations(ModelKind, r)]
names = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1, max_size=8).filter(
    lambda name: name not in PLATFORM_PRESETS
)
paths = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_./-", min_size=1, max_size=20)
stamps = st.text(alphabet="0123456789-:T", min_size=1, max_size=20)


def log_uniform(lo: float, hi: float):
    return st.floats(min_value=lo, max_value=hi).map(lambda e: 10.0**e)


@st.composite
def si_params(draw):
    """Free mass, omega, grav_constant and hbar; the separation is solved
    from a drawn delta = G m / (d^3 omega^2), so delta stays in (0, 0.2]."""
    mass, omega = draw(log_uniform(-30, 3)), draw(log_uniform(-3, 9))
    grav_constant, hbar = draw(log_uniform(-15, -5)), draw(log_uniform(-40, -28))
    separation = (grav_constant * mass / (draw(deltas) * omega**2)) ** (1 / 3)
    p = PhysicalParams(mass=mass, omega=omega, separation=separation, grav_constant=grav_constant, hbar=hbar)
    assume(0 < p.omega_g / p.omega <= DELTA_WARN_LIMIT)
    return p


physicals = st.one_of(st.sampled_from(list(PLATFORM_PRESETS.values())), si_params())


def couplings(name: str = Platform.name):
    """A direct delta (with omega), a preset or free SI parameters."""
    return st.one_of(
        st.builds(Platform, name=st.just(name), delta=deltas, omega=positive),
        st.builds(Platform, name=st.just(name), physical=physicals),
    )


@st.composite
def platforms(draw):
    """One to three platforms of any parameterization, with distinct names."""
    count = draw(st.integers(1, 3))
    return tuple(
        draw(couplings(name)) for name in draw(st.lists(names, min_size=count, max_size=count, unique=True))
    )


@st.composite
def configs(draw):
    tolerances = dataclasses.replace(
        Tolerances(),
        **{f.name: draw(positive) for f in dataclasses.fields(Tolerances) if draw(st.booleans())},
    )
    return ExperimentConfig(
        kind=draw(st.sampled_from(KINDS)),
        models=draw(st.sampled_from(model_orders)),
        platform=draw(couplings()),
        alpha=draw(amplitudes),
        beta=draw(amplitudes),
        cat_alpha=draw(amplitudes),
        random_pairs=draw(st.integers(0, 10**6)),
        alpha_mags=tuple(draw(st.lists(positive, min_size=1, max_size=4))),
        deltas=tuple(draw(st.lists(deltas, min_size=1, max_size=4))),
        samples=draw(st.integers(2, 10**6)),
        oracle=draw(st.sampled_from(ORACLES)),
        grid_points=draw(st.one_of(st.none(), st.integers(32, 2048).map(lambda k: 2 * k))),
        grid_half_extent=draw(st.one_of(st.none(), positive)),
        dt_factor=draw(positive),
        rk_step_factor=draw(positive),
        seed=draw(st.integers(0, 2**63)),
        timestamp=draw(st.one_of(st.none(), stamps)),
        out_dir=draw(st.one_of(st.none(), paths)),
        platforms=draw(platforms()),
        tolerances=tolerances,
    )


@PROPERTY_SETTINGS
@given(configs())
def test_parse_inverts_format(cfg):
    text = format_config(cfg)
    back = parse_config_text(text)
    # feasibility reads only the platform ladder, every other kind only the
    # [params] platform; the block a kind never reads parses back to its default
    unread = "platform" if cfg.kind == "feasibility" else "platforms"
    assert back == dataclasses.replace(cfg, **{unread: getattr(ExperimentConfig(), unread)})
    assert format_config(back) == text


def test_grid_points_echo_forms():
    auto = parse_config_text("[run]\nkind = swap\n[numerics]\ngrid_points = auto\n")
    assert auto.grid_points is None and auto == parse_config_text("[run]\nkind = swap\n")
    assert "grid_points = auto\n" in format_config(auto)
    fixed = parse_config_text("[run]\nkind = swap\n[numerics]\ngrid_points = 512\n")
    assert fixed.grid_points == 512
    assert "grid_points = 512\n" in format_config(fixed)


@settings(max_examples=50, deadline=None)
@given(st.integers(max_value=-1))
def test_negative_seed_is_refused(seed):
    with pytest.raises(ConfigError, match="run.seed"):
        ExperimentConfig(kind="swap", seed=seed, random_pairs=3)
    with pytest.raises(ConfigError, match="run.seed"):
        parse_config_text(f"[run]\nkind = swap\nseed = {seed}\n[state]\nrandom_pairs = 3\n")


def test_cli_refuses_negative_seed(tmp_path, capsys):
    rc = cli_main(["swap", "--seed", "-1", "--out", str(tmp_path / "r")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "run.seed" in err
    assert not (tmp_path / "r").exists()
