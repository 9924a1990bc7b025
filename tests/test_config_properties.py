"""The config echo is the config: parse_config_text(format_config(cfg)) == cfg
over generated configurations, including both forms of the grid size (auto
and an explicit power of two), direct and SI parameters, and platform
sections of either kind."""

import dataclasses
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from gravswap import ExperimentConfig, ModelKind, Platform, Tolerances, format_config, parse_config_text
from gravswap.experiments import KINDS, ORACLES
from gravswap.params import DELTA_WARN_LIMIT, PLATFORM_PRESETS

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
positive = st.floats(min_value=1e-12, max_value=1e6, allow_nan=False)
deltas = st.floats(min_value=1e-9, max_value=DELTA_WARN_LIMIT)
amplitudes = st.builds(complex, finite, finite)
model_orders = [perm for r in (1, 2, 3) for perm in itertools.permutations(ModelKind, r)]
names = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1, max_size=8)
paths = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_./-", min_size=1, max_size=20)
stamps = st.text(alphabet="0123456789-:T", min_size=1, max_size=20)


@st.composite
def platforms(draw):
    """One to three platforms, each a preset or a direct coupling, with
    distinct names."""
    count = draw(st.integers(1, 3))
    out = []
    for name in draw(st.lists(names, min_size=count, max_size=count, unique=True)):
        preset = draw(st.sampled_from([None, *PLATFORM_PRESETS]))
        if preset is None:
            out.append(Platform(name=name, delta=draw(deltas), omega=draw(positive)))
        else:
            out.append(Platform(name=name, physical=PLATFORM_PRESETS[preset]))
    return tuple(out)


@st.composite
def configs(draw):
    if draw(st.booleans()):
        params = {"delta": draw(deltas), "omega": draw(positive)}
    else:
        params = {"delta": None, "physical": PLATFORM_PRESETS[draw(st.sampled_from(sorted(PLATFORM_PRESETS)))]}
    tolerances = dataclasses.replace(
        Tolerances(),
        **{f.name: draw(positive) for f in dataclasses.fields(Tolerances) if draw(st.booleans())},
    )
    return ExperimentConfig(
        kind=draw(st.sampled_from(KINDS)),
        models=draw(st.sampled_from(model_orders)),
        alpha=draw(amplitudes),
        beta=draw(amplitudes),
        cat_alpha=draw(amplitudes),
        random_pairs=draw(st.integers(0, 10**6)),
        alpha_mags=tuple(draw(st.lists(positive, min_size=1, max_size=4))),
        deltas=tuple(draw(st.lists(deltas, min_size=1, max_size=4))),
        samples=draw(st.integers(2, 10**6)),
        oracle=draw(st.sampled_from(ORACLES)),
        grid_points=draw(st.one_of(st.none(), st.sampled_from([64, 128, 256, 512, 1024, 2048, 4096]))),
        grid_half_extent=draw(st.one_of(st.none(), positive)),
        dt_factor=draw(positive),
        rk_step_factor=draw(positive),
        workers=draw(st.integers(1, 64)),
        seed=draw(st.integers(-(2**63), 2**63)),
        timestamp=draw(st.one_of(st.none(), stamps)),
        out_dir=draw(st.one_of(st.none(), paths)),
        platforms=draw(platforms()),
        tolerances=tolerances,
        **params,
    )


@PROPERTY_SETTINGS
@given(configs())
def test_parse_inverts_format(cfg):
    text = format_config(cfg)
    back = parse_config_text(text)
    assert back == cfg
    assert format_config(back) == text


def test_grid_points_echo_forms():
    auto = parse_config_text("[run]\nkind = swap\n[numerics]\ngrid_points = auto\n")
    assert auto.grid_points is None and auto == parse_config_text("[run]\nkind = swap\n")
    assert "grid_points = auto\n" in format_config(auto)
    fixed = parse_config_text("[run]\nkind = swap\n[numerics]\ngrid_points = 512\n")
    assert fixed.grid_points == 512
    assert "grid_points = 512\n" in format_config(fixed)
