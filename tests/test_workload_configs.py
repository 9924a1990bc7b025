"""The benchmark's workloads (perfbench/workloads.py) hand the CLI a config
file built from their fields.  A config the parser refuses ends every
benchmark round with exit 2, so each must parse, name the kind of its
subcommand, and read back from its own echo unchanged."""

import importlib.util
import sys
from pathlib import Path

import pytest

from gravswap import format_config, parse_config_text

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclass looks its class's module up there
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


WORKLOADS = _load_workloads().WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_config_parses_and_round_trips(name):
    workload = WORKLOADS[name]
    cfg = parse_config_text(workload.config)
    assert cfg.kind == workload.command.replace("-", "_")
    assert parse_config_text(format_config(cfg)) == cfg
