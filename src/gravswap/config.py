"""The experiment configuration: its schema, and a strict key-value text form
with parsing, validation and a canonical echo.

This module holds the schema of a run's inputs, `ExperimentConfig` with its
`Platform` and the budgets of its counts; `params` holds the model names and
the integrator settings it reads.  The verdict thresholds are not inputs but
constants of `experiments`.  Neither imports numpy, so a config is parsed,
echoed, digested or refused, and `--help` answers, before any numeric module
loads; the CLI imports the experiments only once a run starts.  The imports
run one way: params, config, the numeric modules, experiments, report, cli.

Format: `key = value` lines grouped under `[section]` headers, `#` comments.
Each key is declared once: `CONFIG_KEYS` drives the parse and echo of the
plain keys, `SI_FIELDS` and `_DIRECT_FIELDS` those of the [params] and
[platform:NAME] blocks.  Unknown keys and sections are refused, so a typo
never falls back to a physics default; so are a key the block's
parameterization does not take and a coupling block the run's kind never
reads.  Every refusal names the key or block at fault.  `format_config`
renders the fully resolved configuration in a canonical order with full float
precision; parse(format(cfg)) == cfg.
"""

from __future__ import annotations

import cmath
import dataclasses
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

from .params import (
    DELTA_HARD_LIMIT,
    MODEL_BY_NAME,
    ConfigError,
    DimensionlessParams,
    IntegratorConfig,
    ModelKind,
    ParameterError,
    PhysicalParams,
    PLATFORM_PRESETS,
    derive_dimensionless,
    swap_time,
)

# Budgets of the two sampled counts.  A swap sample costs about 0.8 kB of
# memory and 0.9 kB of CSV with the three default models, and a random pair
# 0.12 kB and 0.09 kB, so either budget holds a run near 1 GB of each;
# beyond them numpy fails to allocate with a raw traceback.
MAX_SAMPLES = 1_000_000
MAX_RANDOM_PAIRS = 10_000_000

KINDS = ("swap", "rwa_validity", "cat_state", "feasibility")
ORACLES = ("none", "ode", "grid", "all")

DEFAULT_MODELS = (ModelKind.QG_RWA, ModelKind.QG_FULL, ModelKind.SCEG)


@dataclass(frozen=True)
class Platform:
    """The coupling of a run or of one feasibility row: SI parameters or a
    direct delta.  The run's own coupling keeps the default name."""

    name: str = "params"
    physical: PhysicalParams | None = None
    delta: float | None = None
    omega: float = 1.0

    def __post_init__(self) -> None:
        if (self.physical is None) == (self.delta is None):
            raise ConfigError(f"platform {self.name!r}: give SI parameters or a direct delta, not both")

    def dimensionless(self) -> DimensionlessParams:
        """The platform's coupling; a positive one must give a finite swap time."""
        if self.physical is not None:
            params = derive_dimensionless(self.physical)
        else:
            params = DimensionlessParams(delta=self.delta, omega=self.omega)
        # a direct delta may be zero (no coupling); the SI keys give zero only by underflow
        if (params.delta > 0 or self.physical is not None) and swap_time(params) == math.inf:
            raise ParameterError(f"params.delta: {params.delta!r} is too small: swap time pi/(2 delta omega) is inf")
        return params


def preset_platform(name: str) -> Platform:
    if name not in PLATFORM_PRESETS:
        raise ConfigError(f"unknown platform preset {name!r}; known: {sorted(PLATFORM_PRESETS)}")
    return Platform(name=name, physical=PLATFORM_PRESETS[name])


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str = "swap"
    models: tuple[ModelKind, ...] = DEFAULT_MODELS
    platform: Platform = Platform(delta=0.05)
    alpha: complex = 1 + 0j
    beta: complex = 0j
    cat_alpha: complex = 2 + 0j
    random_pairs: int = 0
    alpha_mags: tuple[float, ...] = (1.0, 10.0, 100.0)
    deltas: tuple[float, ...] = (0.01, 0.05, 0.1)
    samples: int = 200
    oracle: str | None = None  # None: grid for a cat state, which needs it, else none
    dt_factor: float = IntegratorConfig.dt_factor
    rk_step_factor: float = IntegratorConfig.rk_step_factor
    seed: int = 0
    timestamp: str | None = None
    out_dir: str | None = None
    platforms: tuple[Platform, ...] = (preset_platform("ca40_ion"),)
    source_digest: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"run.kind: unknown kind {self.kind!r}; expected one of {KINDS}")
        if self.oracle is None:
            object.__setattr__(self, "oracle", "grid" if self.kind == "cat_state" else "none")
        if self.oracle not in ORACLES:
            raise ConfigError(f"run.oracle: unknown oracle {self.oracle!r}; expected one of {ORACLES}")
        if not self.models:
            raise ConfigError("run.models: at least one model required")
        for i, model in enumerate(self.models):
            if model in self.models[:i]:
                raise ConfigError(f"run.models: {model.value!r} is listed twice")
        if not 2 <= self.samples <= MAX_SAMPLES:
            raise ConfigError(f"run.samples: need 2 to {MAX_SAMPLES} samples, got {self.samples}")
        if not 0 <= self.random_pairs <= MAX_RANDOM_PAIRS:
            raise ConfigError(f"state.random_pairs: must be 0 to {MAX_RANDOM_PAIRS}, got {self.random_pairs}")
        if self.seed < 0:
            raise ConfigError(f"run.seed: must be non-negative, got {self.seed}")
        for name in ("alpha", "beta", "cat_alpha"):
            if not cmath.isfinite(getattr(self, name)):
                raise ConfigError(f"state.{name}: must be finite, got {getattr(self, name)!r}")
        # the photon number |alpha|^2 + |beta|^2 must be finite (abs() and ** would raise OverflowError)
        mags = {name: math.hypot(z.real, z.imag) for name, z in (("alpha", self.alpha), ("beta", self.beta))}
        if not sum(m * m for m in mags.values()) < math.inf:
            name = max(mags, key=mags.get)
            raise ConfigError(f"state.{name}: |alpha|^2 + |beta|^2 overflows a float, got {getattr(self, name)!r}")
        if not all(0 < d < DELTA_HARD_LIMIT and math.pi / d < math.inf for d in self.deltas):  # each sweeps pi/delta
            raise ConfigError(f"sweep.deltas: couplings must be in (0, 1/2), with a finite pi/delta, got {self.deltas}")
        if not all(0 < m < math.inf for m in self.alpha_mags):
            raise ConfigError(f"sweep.alpha_mags: magnitudes must be finite and positive, got {self.alpha_mags}")
        # each magnitude is swept against beta, and its photon number must be finite too
        if not all(m * m + mags["beta"] * mags["beta"] < math.inf for m in self.alpha_mags):
            raise ConfigError(f"sweep.alpha_mags: mag^2 + |beta|^2 overflows a float, got {self.alpha_mags}")
        self.integrator()  # checks the [numerics] step factors

    def integrator(self) -> IntegratorConfig:
        return IntegratorConfig(dt_factor=self.dt_factor, rk_step_factor=self.rk_step_factor)

    def uses_ode(self) -> bool:
        return self.oracle in ("ode", "all")

    def uses_grid(self) -> bool:
        return self.oracle in ("grid", "all")


def _number(convert, what: str):
    """The parser of a number that `convert` reads, refused as not `what`."""

    def parse(raw: str, path: str):
        try:
            return convert(raw)
        except ValueError:
            raise ConfigError(f"{path}: expected {what}, got {raw!r}") from None

    return parse


_parse_float = _number(float, "a number")
_parse_int = _number(lambda raw: int(raw, 0), "an integer")
_parse_complex = _number(lambda raw: complex(raw.replace(" ", "").replace("i", "j")), "a complex number like 1+2j")


def _parse_float_list(raw: str, path: str) -> tuple[float, ...]:
    items = [s.strip() for s in raw.split(",") if s.strip()]
    if not items:
        raise ConfigError(f"{path}: expected a comma-separated list of numbers")
    return tuple(_parse_float(s, path) for s in items)


def _parse_models(raw: str, path: str) -> tuple[ModelKind, ...]:
    names = [s.strip() for s in raw.split(",") if s.strip()]
    for name in names:
        if name not in MODEL_BY_NAME:
            raise ConfigError(f"{path}: unknown model {name!r}; expected {sorted(MODEL_BY_NAME)}")
    return tuple(MODEL_BY_NAME[name] for name in names)


def _parse_text(raw: str, path: str) -> str:
    return raw


def _fmt_float(v: float) -> str:
    return "%.17g" % v


def _fmt_complex(v: complex) -> str:
    return "%.17g%+.17gj" % (v.real, v.imag)


def _fmt_floats(values: tuple[float, ...]) -> str:
    return ", ".join(_fmt_float(v) for v in values)


def _fmt_text(v: str | None) -> str | None:
    return v


# Every key of [run], [state], [sweep] and [numerics], in echo order: its
# section, its name, the ExperimentConfig field it sets, the parser of its
# text and the echo of its value (an echo of None leaves the line out).  This
# is the one place such a key is declared; the coupling blocks are declared by
# SI_FIELDS and _DIRECT_FIELDS, and run.platforms is the platform ladder.
CONFIG_KEYS = (
    ("run", "kind", "kind", _parse_text, str),
    ("run", "seed", "seed", _parse_int, str),
    ("run", "oracle", "oracle", _parse_text, str),
    ("run", "samples", "samples", _parse_int, str),
    ("run", "models", "models", _parse_models, lambda models: ", ".join(m.value for m in models)),
    ("run", "out", "out_dir", _parse_text, _fmt_text),
    ("run", "timestamp", "timestamp", _parse_text, _fmt_text),
    ("state", "alpha", "alpha", _parse_complex, _fmt_complex),
    ("state", "beta", "beta", _parse_complex, _fmt_complex),
    ("state", "cat_alpha", "cat_alpha", _parse_complex, _fmt_complex),
    ("state", "random_pairs", "random_pairs", _parse_int, str),
    ("sweep", "alpha_mags", "alpha_mags", _parse_float_list, _fmt_floats),
    ("sweep", "deltas", "deltas", _parse_float_list, _fmt_floats),
    ("numerics", "dt_factor", "dt_factor", _parse_float, _fmt_float),
    ("numerics", "rk_step_factor", "rk_step_factor", _parse_float, _fmt_float),
)

# The keys of a [params] or [platform:NAME] block besides `preset`, each with
# the field it sets, in echo order: the SI keys set a PhysicalParams, the
# direct keys the coupling of a Platform.
SI_FIELDS = {"mass_kg": "mass", "omega_rad_s": "omega", "separation_m": "separation"}
_DIRECT_FIELDS = {"delta": "delta", "omega": "omega"}
_PARAMS_KEYS = {"preset", *SI_FIELDS, *_DIRECT_FIELDS}

# the kinds that read no [params] block, each with where its couplings come from
_COUPLING_ELSEWHERE = {
    "rwa_validity": "give its couplings in sweep.deltas",
    "feasibility": "list its platforms in run.platforms",
}

# the keys of each section, in echo order of the sections
_SECTION_KEYS: dict[str, set[str]] = {"run": {"platforms"}, "params": _PARAMS_KEYS}
for _section, _key, *_ in CONFIG_KEYS:
    _SECTION_KEYS.setdefault(_section, set()).add(_key)


def parse_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    digest = "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()
    cfg = parse_config_text(text, source=str(path))
    return dataclasses.replace(cfg, source_digest=digest)


def parse_config_text(text: str, source: str = "<string>") -> ExperimentConfig:
    sections: dict[str, dict[str, str]] = {}
    section = "run"
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section.startswith("platform:"):
                section = "platform:" + section.split(":", 1)[1].strip()
            elif section not in _SECTION_KEYS:
                raise ConfigError(f"{source}:{lineno}: unknown section [{section}]")
            sections.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected `key = value`, got {rawline.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        known = _PARAMS_KEYS if section.startswith("platform:") else _SECTION_KEYS[section]
        if key not in known:
            raise ConfigError(f"{source}:{lineno}: {section}.{key}: unknown key")
        entries = sections.setdefault(section, {})
        if key in entries:
            raise ConfigError(f"{source}:{lineno}: {section}.{key}: duplicate key")
        entries[key] = value
    run = sections.get("run", {})
    if "kind" not in run:
        raise ConfigError(f"{source}: run.kind is required")

    kwargs: dict = {}
    for section, key, name, parse, _ in CONFIG_KEYS:
        raw = sections.get(section, {}).get(key)
        if raw is not None:
            kwargs[name] = parse(raw, f"{section}.{key}")
    cfg = ExperimentConfig(**kwargs)  # checks these keys, the kind first
    kind, blocks = cfg.kind, {}

    # feasibility reads only the platform ladder, rwa_validity only its sweep
    # and every other kind only the [params] block; a coupling block that a
    # kind never reads would have no effect
    if kind in _COUPLING_ELSEWHERE and sections.get("params"):
        key = next(iter(sections["params"]))
        raise ConfigError(f"params.{key}: a {kind} run never reads [params]; {_COUPLING_ELSEWHERE[kind]}")
    if kind != "feasibility" and "platforms" in run:
        raise ConfigError(f"run.platforms: a {kind} run never reads a platform ladder; give its coupling in [params]")
    if sections.get("params"):
        blocks["platform"] = _build_platform("params", sections["params"])

    defined = sorted(s.removeprefix("platform:") for s in sections if s.startswith("platform:"))
    if "platforms" in run:
        names = [s.strip() for s in run["platforms"].split(",") if s.strip()]
        platforms = []
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ConfigError(f"run.platforms: {name!r} is listed twice")
            if name in defined:
                platform = _build_platform(f"platform:{name}", sections[f"platform:{name}"])
                if name in PLATFORM_PRESETS and platform != preset_platform(name):
                    raise ConfigError(f"platform:{name}: differs from the preset of that name; rename the section")
                platforms.append(platform)
            elif name in PLATFORM_PRESETS:
                platforms.append(preset_platform(name))
            else:
                raise ConfigError(
                    f"run.platforms: {name!r} is neither a preset nor defined in a [platform:{name}] section"
                )
        unused = [name for name in defined if name not in names]
        if unused:
            raise ConfigError(f"platform sections defined but not listed in run.platforms: {unused}")
        blocks["platforms"] = tuple(platforms)
    elif defined:
        raise ConfigError("platform sections given without run.platforms listing them")

    return dataclasses.replace(cfg, **blocks)


def _build_platform(path: str, keys: dict[str, str]) -> Platform:
    """The Platform of the [params] block or of a [platform:NAME] section,
    with its coupling checked.  It takes one of three parameterizations:
    `preset`; the SI keys; or `delta`, with optional `omega`.  A key of any
    other parameterization is refused by name, and so is a value out of
    range."""
    if "preset" in keys:
        label, fields = "a preset", {"preset"}
    elif any(k in keys for k in SI_FIELDS):
        label, fields = "the SI keys", SI_FIELDS
    elif "delta" in keys:
        label, fields = "delta", _DIRECT_FIELDS
    else:
        raise ConfigError(f"{path}: needs preset, delta, or SI keys")
    for key in keys:
        if key not in fields:
            raise ConfigError(f"{path}.{key}: cannot be combined with {label}; give one parameterization, not both")

    name = path.removeprefix("platform:")
    if "preset" in keys:
        preset = keys["preset"]
        if preset not in PLATFORM_PRESETS:
            raise ConfigError(f"{path}.preset: unknown preset {preset!r}; known: {sorted(PLATFORM_PRESETS)}")
        return Platform(name, physical=PLATFORM_PRESETS[preset])
    missing = [k for k in SI_FIELDS if k not in keys]
    if fields is SI_FIELDS and missing:
        raise ConfigError(f"{path}: SI parameterization needs all of {tuple(SI_FIELDS)}; missing {missing}")
    values = {fields[key]: _parse_float(raw, f"{path}.{key}") for key, raw in keys.items()}
    try:
        if fields is SI_FIELDS:
            values = {"physical": PhysicalParams(**values)}
        platform = Platform(name, **values)
        platform.dimensionless()
    except ParameterError as exc:
        # params names the field it refuses (`params.mass: ...`); the config
        # names the key that set it, or the block for the delta the SI keys give
        field, _, reason = str(exc).partition(": ")
        key = next((k for k, f in fields.items() if field == f"params.{f}"), None)
        where = f"{path}.{key}" if key else f"{path}: delta from the SI keys"
        raise ConfigError(f"{where}: {reason}") from None
    return platform


def _platform_lines(platform: Platform) -> list[str]:
    """The keys of a [params] or [platform:NAME] block; a preset is echoed
    as its SI values, and the block's name is the caller's to write."""
    source, fields = (platform, _DIRECT_FIELDS) if platform.physical is None else (platform.physical, SI_FIELDS)
    return [f"{key} = {_fmt_float(getattr(source, field))}" for key, field in fields.items()]


def format_config(cfg: ExperimentConfig) -> str:
    """Canonical text form of the fully resolved configuration.  A run reads
    at most one coupling block: feasibility reads `run.platforms` and the
    [platform:NAME] sections, rwa_validity neither block, every other kind
    the [params] block, and the echo writes only the one its kind reads."""
    ladder = cfg.kind == "feasibility"
    blocks: dict[str, list[str]] = {section: [] for section in _SECTION_KEYS}
    for section, key, name, _, echo in CONFIG_KEYS:
        text = echo(getattr(cfg, name))
        if text is not None:
            blocks[section].append(f"{key} = {text}")
    if ladder:
        blocks["run"].append("platforms = " + ", ".join(p.name for p in cfg.platforms))
    elif cfg.kind not in _COUPLING_ELSEWHERE:
        blocks["params"] = _platform_lines(cfg.platform)
    sections = [(section, lines) for section, lines in blocks.items() if lines]
    sections += [(f"platform:{p.name}", _platform_lines(p)) for p in (cfg.platforms if ladder else ())]
    return "\n\n".join("\n".join([f"[{section}]", *lines]) for section, lines in sections) + "\n"


def config_digest(cfg: ExperimentConfig) -> str:
    return "sha256:" + hashlib.sha256(format_config(cfg).encode("utf-8")).hexdigest()
