"""The config echo is the config as its kind reads it:
parse_config_text(format_config(cfg)) == cfg over generated configurations,
up to the coupling blocks the kind never reads, with direct, preset and free
SI parameters in both the [params] block and platform sections.  A negative
seed is refused, from a config file and from --seed alike, and any bytes in
a config file parse or are refused as a ConfigError."""

import dataclasses
import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gravswap import (
    ConfigError,
    ExperimentConfig,
    ModelKind,
    PhysicalParams,
    Platform,
    format_config,
    parse_config,
    parse_config_text,
)
from gravswap.cli import main as cli_main
from gravswap.config import KINDS, ORACLES
from gravswap.params import DELTA_WARN_LIMIT, GRAVITATIONAL_CONSTANT, PLATFORM_PRESETS

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
positive = st.floats(min_value=1e-12, max_value=1e6, allow_nan=False)
deltas = st.floats(min_value=1e-9, max_value=DELTA_WARN_LIMIT)
amplitudes = st.builds(complex, finite, finite)
model_orders = [perm for r in (1, 2, 3) for perm in itertools.permutations(ModelKind, r)]
cat_model_orders = [order for order in model_orders if ModelKind.SCEG in order and len(order) > 1]
names = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1, max_size=8).filter(
    lambda name: name not in PLATFORM_PRESETS
)
stamps = st.text(alphabet="0123456789-:T", min_size=1, max_size=20)


def log_uniform(lo: float, hi: float):
    return st.floats(min_value=lo, max_value=hi).map(lambda e: 10.0**e)


@st.composite
def si_params(draw):
    """Free mass and omega; the separation is solved from a drawn
    delta = G m / (d^3 omega^2), so delta stays in (0, 0.2]."""
    mass, omega = draw(log_uniform(-30, 3)), draw(log_uniform(-3, 9))
    separation = (GRAVITATIONAL_CONSTANT * mass / (draw(deltas) * omega**2)) ** (1 / 3)
    p = PhysicalParams(mass=mass, omega=omega, separation=separation)
    assume(0 < p.omega_g / p.omega <= DELTA_WARN_LIMIT)
    return p


physicals = st.one_of(st.sampled_from(list(PLATFORM_PRESETS.values())), si_params())


def couplings(name: str = Platform.name):
    """A direct delta, a preset or free SI parameters."""
    return st.one_of(
        st.builds(Platform, name=st.just(name), delta=deltas),
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
    # a cat state runs on the grid and compares sceg with a quantum model;
    # the configs it refuses are covered by the refusal tests
    kind = draw(st.sampled_from(KINDS))
    cat = kind == "cat_state"
    return ExperimentConfig(
        kind=kind,
        models=draw(st.sampled_from(cat_model_orders if cat else model_orders)),
        platform=draw(couplings()),
        alpha=draw(amplitudes),
        beta=draw(amplitudes),
        cat_alpha=draw(amplitudes),
        random_pairs=draw(st.integers(0, 10**6)),
        alpha_mags=tuple(draw(st.lists(positive, min_size=1, max_size=4))),
        deltas=tuple(draw(st.lists(deltas, min_size=1, max_size=4))),
        samples=draw(st.integers(2, 10**6)),
        oracle=draw(st.sampled_from(("grid", "all") if cat else ORACLES)),
        seed=draw(st.integers(0, 2**63)),
        timestamp=draw(st.one_of(st.none(), stamps)),
        platforms=draw(platforms()),
    )


@PROPERTY_SETTINGS
@given(configs())
def test_parse_inverts_format(cfg):
    text = format_config(cfg)
    back = parse_config_text(text)
    # feasibility reads only the platform ladder, rwa_validity neither block
    # and every other kind only the [params] platform; a block the kind never
    # reads parses back to its default
    unread = {"feasibility": ("platform",), "rwa_validity": ("platform", "platforms")}.get(cfg.kind, ("platforms",))
    assert back == dataclasses.replace(cfg, **{name: getattr(ExperimentConfig(), name) for name in unread})
    assert format_config(back) == text


# the start of a config that parses, so that the bytes after it reach the
# sections and keys too
HEADS = (b"", b"[run]\nkind = swap\n", b"[run]\nkind = cat_state\n[params]\ndelta = ")


@PROPERTY_SETTINGS
@given(st.sampled_from(HEADS), st.binary(max_size=200))
def test_any_bytes_parse_or_are_refused(tmp_path_factory, head, tail):
    # undecodable text is refused like any other bad config, never with a
    # raw UnicodeDecodeError
    path = tmp_path_factory.getbasetemp() / "bytes.cfg"
    path.write_bytes(head + tail)
    try:
        parse_config(path)
    except ConfigError:
        pass


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
