"""One rule for every input: a key or coupling block that the run's kind never
reads is refused by its name, before its value is judged, and neither the
echo nor the digest holds a field the kind never reads.  A config built in
Python judges only the fields its kind reads, so it agrees with the text."""

import dataclasses
import math
import re
from pathlib import Path

import pytest

from gravswap import (
    ConfigError,
    ExperimentConfig,
    ModelKind,
    Platform,
    config_digest,
    emit_report,
    parse_config_text,
    run_feasibility,
)
from gravswap.cli import main as cli_main
from gravswap.config import BLOCK_READERS, CONFIG_KEYS, FIELD_READERS, KINDS, SI_FIELDS, refuse_unread

# 0.7 is no valid value of most keys (an out-of-range coupling, no integer,
# no model, oracle or preset), so a refusal for its value would show here
_VALUE = "0.7"
_BLOCK_KEYS = ("preset", *SI_FIELDS, "delta")
# the configs that give each coupling block, with the key each is refused by
_BLOCK_TEXTS = {
    "params": [(f"[params]\n{key} = {_VALUE}\n", f"params.{key}") for key in _BLOCK_KEYS],
    "platform": [
        (f"platforms = bench\n[platform:bench]\ndelta = {_VALUE}\n", "run.platforms"),
        *[(f"[platform:bench]\n{key} = {_VALUE}\n", f"platform:bench.{key}") for key in _BLOCK_KEYS],
    ],
}


def _unread():
    """Every (kind, config body, key) whose key or block the kind never reads."""
    for kind in KINDS:
        for section, key, *_, readers in CONFIG_KEYS:
            if kind not in readers:
                header = "" if section == "run" else f"[{section}]\n"
                yield kind, f"{header}{key} = {_VALUE}\n", f"{section}.{key}"
        for block, readers in BLOCK_READERS.items():
            if kind not in readers:
                for text, key in _BLOCK_TEXTS[block]:
                    yield kind, text, key


UNREAD = list(_unread())


@pytest.mark.parametrize("kind,text,key", UNREAD, ids=[f"{kind}-{key}" for kind, _, key in UNREAD])
def test_key_the_kind_never_reads_is_refused(tmp_path, capsys, kind, text, key):
    cfg_path = tmp_path / "c.txt"
    cfg_path.write_text(f"[run]\nkind = {kind}\n{text}")
    rc = cli_main([kind.replace("_", "-"), "--config", str(cfg_path), "--out", str(tmp_path / "r")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {key}: a {kind} run never reads it\n"
    assert not (tmp_path / "r").exists()


def _reads(kind, section, key):
    try:
        refuse_unread(kind, section, key)
    except ConfigError:
        return False
    return True


def test_accepted_keys_per_kind():
    # the keys of [run], [state] and [sweep], run.platforms, and the five
    # keys of a [params] block and of a [platform:NAME] section
    keys = [(section, key) for section, key, *_ in CONFIG_KEYS] + [("run", "platforms")]
    keys += [(block, key) for block in ("params", "platform:bench") for key in _BLOCK_KEYS]
    assert {kind: sum(_reads(kind, section, key) for section, key in keys) for kind in KINDS} == {
        "swap": 13, "cat_state": 12, "rwa_validity": 6, "feasibility": 9,
    }


@pytest.mark.parametrize("command", ["rwa-validity", "feasibility"])
def test_oracle_flag_refused_where_the_kind_never_reads_it(tmp_path, capsys, command):
    rc = cli_main([command, "--oracle", "all", "--out", str(tmp_path / "r")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: run.oracle: a {command.replace('-', '_')} run never reads it\n"
    assert not (tmp_path / "r").exists()


def test_replay_ignores_a_field_the_kind_never_reads(tmp_path):
    # a feasibility run never reads the samples, models or oracle: configs
    # that differ only there share a digest, and one replays into the
    # other's directory with the same bytes
    out = tmp_path / "out"
    plain = ExperimentConfig(kind="feasibility")
    other = ExperimentConfig(kind="feasibility", samples=7, models=(ModelKind.SCEG,), oracle="all")
    assert config_digest(other) == config_digest(plain)
    first = {p.name: p.read_bytes() for p in emit_report(run_feasibility(plain), out)}
    again = {p.name: p.read_bytes() for p in emit_report(run_feasibility(other), out)}
    assert again == first


# a value each field of ExperimentConfig but the kind refuses, and the key it is refused by
_REFUSED = {
    "seed": (-1, "run.seed"),
    "oracle": ("sometimes", "run.oracle"),
    "samples": (1, "run.samples"),
    "models": ((), "run.models"),
    "platforms": ((), "run.platforms"),
    "platform": (Platform(delta=0.0), "params.delta"),
    "alpha": (complex(math.inf), "state.alpha"),
    "beta": (complex(0, math.inf), "state.beta"),
    "cat_alpha": (complex(math.inf, 1), "state.cat_alpha"),
    "random_pairs": (-1, "state.random_pairs"),
    "alpha_mags": ((-1.0,), "sweep.alpha_mags"),
    "deltas": ((0.7,), "sweep.deltas"),
}


def test_every_field_has_its_readers():
    inputs = {f.name for f in dataclasses.fields(ExperimentConfig) if f.compare}
    assert set(FIELD_READERS) == inputs
    assert set(_REFUSED) == inputs - {"kind"}


@pytest.mark.parametrize("field", _REFUSED)
@pytest.mark.parametrize("kind", KINDS)
def test_python_config_judges_only_the_fields_its_kind_reads(kind, field):
    # ExperimentConfig(kind="feasibility", deltas=(0.7,)) builds, as the text
    # form never reaches the value of a key the kind never reads; an
    # rwa_validity config refuses it by name
    value, key = _REFUSED[field]
    if kind in FIELD_READERS[field]:
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: "):
            ExperimentConfig(kind=kind, **{field: value})
    else:
        cfg = ExperimentConfig(kind=kind, **{field: value})
        assert getattr(cfg, field) == value
        assert config_digest(cfg) == config_digest(ExperimentConfig(kind=kind))


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_examples_parse():
    section = README.read_text(encoding="utf-8").split("## Config format", 1)[1].split("\n## ", 1)[0]
    examples = [block for block in re.findall(r"```\n(.*?)```", section, re.S) if block.startswith("[run]")]
    assert len(examples) >= 2
    for text in examples:
        cfg = parse_config_text(text)
        assert cfg.kind in KINDS
