"""The experiment configuration: its schema, and a strict key-value text form
with parsing, validation and a canonical echo.

This module holds the schema of a run's inputs, `ExperimentConfig` with its
`Platform` and the budgets of its counts; `params` holds the model names it
reads.  The verdict thresholds and the integrators' step sizes are not
inputs but constants of `experiments`, `grid` and `moments_ode`; nor are
the source digest and `--stamp` timestamp a config carries to the manifest.
Neither this module nor `params` imports numpy, so a config is parsed, echoed,
digested or refused, and `--help` answers, before any numeric module loads;
the CLI imports the experiments only once a run starts.  The imports run one
way: params, config, the numeric modules, experiments, report, cli.

Format: `key = value` lines grouped under `[section]` headers, `#` comments,
in UTF-8 with or without a byte order mark, and LF or CRLF line ends.
Each key is declared once: `CONFIG_KEYS` gives a plain key's parse, echo
and the kinds that read it, `SI_FIELDS`, `_DIRECT_FIELDS` and
`BLOCK_READERS` those of the [params] and [platform:NAME] blocks.  Unknown
keys and sections are refused, so a typo never falls back to a physics
default; so are a key the run's kind never reads, a key the block's
parameterization does not take, and a run its experiment cannot make: a
swap or cat state at zero coupling, or a cat state without the grid oracle
or without sceg and a quantum model to compare.  Every refusal names the key
or block at fault.  `format_config` renders the keys the kind reads in a
canonical order with full float precision; parse(format(cfg)) == cfg.
`ExperimentConfig` judges the value of a field only where the kind reads it
(`FIELD_READERS`), so a config built in Python agrees with the text form.

The config and source digests are SHA-256 hex, the value `sha256sum`
prints, from CPython's built-in SHA-256 module: `hashlib` would load
OpenSSL's libcrypto, 3.7 MB of every run's resident memory, to hash under
1 kB of text.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

# the built-in SHA-256, taken as random.py takes its _sha512
try:
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10, 3.11
    except ImportError:
        from hashlib import sha256

from .params import (
    DELTA_HARD_LIMIT,
    MODEL_BY_NAME,
    ConfigError,
    DimensionlessParams,
    ModelKind,
    ParameterError,
    PhysicalParams,
    PLATFORM_PRESETS,
    derive_dimensionless,
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

    def __post_init__(self) -> None:
        if (self.physical is None) == (self.delta is None):
            raise ConfigError(f"platform {self.name!r}: give SI parameters or a direct delta, not both")

    def dimensionless(self) -> DimensionlessParams:
        """The platform's coupling, derived once (and warned of once).  A
        positive one must give a finite swap time pi/(2 delta), and SI
        parameters one in seconds too."""
        if "_params" in self.__dict__:
            return self.__dict__["_params"]
        if self.physical is None:
            params, omega = DimensionlessParams(delta=self.delta), 1.0
        else:
            params, omega = derive_dimensionless(self.physical), self.physical.omega
        # pi/(2 rate) is the longer of pi/(2 delta) and the seconds pi/(2 delta
        # omega); a direct delta may be zero (no coupling), the SI keys give
        # zero only by underflow
        rate = params.delta * min(omega, 1.0)
        if (params.delta > 0 or self.physical is not None) and not (rate > 0 and math.pi / (2.0 * rate) < math.inf):
            raise ParameterError(f"params.delta: {params.delta!r} is too small: the swap time overflows a float")
        self.__dict__["_params"] = params  # past the frozen __setattr__; no field, so no part of eq or hash
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
    seed: int = 0
    platforms: tuple[Platform, ...] = (preset_platform("ca40_ion"),)
    # provenance, not inputs: neither is parsed, echoed or digested
    source_digest: str | None = field(default=None, compare=False)
    timestamp: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"run.kind: unknown kind {self.kind!r}; expected one of {KINDS}")
        if self.oracle is None:
            object.__setattr__(self, "oracle", "grid" if self.kind == "cat_state" else "none")
        # a field the kind never reads is neither echoed nor digested, and its value is not judged
        reads = {name for name, readers in FIELD_READERS.items() if self.kind in readers}
        if "oracle" in reads and self.oracle not in ORACLES:
            raise ConfigError(f"run.oracle: unknown oracle {self.oracle!r}; expected one of {ORACLES}")
        cat = self.kind == "cat_state"
        if cat and not self.uses_grid():
            raise ConfigError("run.oracle: the cat-state experiment needs the grid oracle (grid or all)")
        # an empty ladder or sweep would pass with no verdicts
        for key, name in (("run.models", "models"), ("run.platforms", "platforms"),
                          ("sweep.deltas", "deltas"), ("sweep.alpha_mags", "alpha_mags")):
            if name in reads and not getattr(self, name):
                raise ConfigError(f"{key}: at least one entry required")
        if "models" in reads:
            for i, model in enumerate(self.models):
                if model in self.models[:i]:
                    raise ConfigError(f"run.models: {model.value!r} is listed twice")
        if cat and (ModelKind.SCEG not in self.models or self.models == (ModelKind.SCEG,)):
            names = ", ".join(m.value for m in self.models)
            raise ConfigError(f"run.models: the cat-state experiment compares sceg with a quantum model; got {names}")
        # a direct delta may be zero; a swap or a cat state needs a coupling to evolve under
        if self.kind in ("swap", "cat_state") and self.platform.delta == 0:
            experiment = self.kind.replace("_", "-")
            raise ConfigError(f"params.delta: the {experiment} experiment needs a positive coupling")
        if "samples" in reads and not 2 <= self.samples <= MAX_SAMPLES:
            raise ConfigError(f"run.samples: need 2 to {MAX_SAMPLES} samples, got {self.samples}")
        if "random_pairs" in reads and not 0 <= self.random_pairs <= MAX_RANDOM_PAIRS:
            raise ConfigError(f"state.random_pairs: must be 0 to {MAX_RANDOM_PAIRS}, got {self.random_pairs}")
        if self.seed < 0:
            raise ConfigError(f"run.seed: must be non-negative, got {self.seed}")
        for name in reads & {"alpha", "beta", "cat_alpha"}:
            if not cmath.isfinite(getattr(self, name)):
                raise ConfigError(f"state.{name}: must be finite, got {getattr(self, name)!r}")
        # the photon number |alpha|^2 + |beta|^2 must be finite (abs() and ** would raise OverflowError)
        mags = {name: math.hypot(getattr(self, name).real, getattr(self, name).imag)
                for name in ("alpha", "beta") if name in reads}
        if not sum(m * m for m in mags.values()) < math.inf:
            name = max(mags, key=mags.get)
            raise ConfigError(f"state.{name}: |alpha|^2 + |beta|^2 overflows a float, got {getattr(self, name)!r}")
        if "deltas" in reads and not all(0 < d < DELTA_HARD_LIMIT and math.pi / d < math.inf for d in self.deltas):
            raise ConfigError(f"sweep.deltas: couplings must be in (0, 1/2), with a finite pi/delta, got {self.deltas}")
        if "alpha_mags" in reads:
            if not all(0 < m < math.inf for m in self.alpha_mags):
                raise ConfigError(f"sweep.alpha_mags: magnitudes must be finite and positive, got {self.alpha_mags}")
            # each magnitude is swept against beta, and its photon number must be finite too
            if not all(m * m + mags["beta"] * mags["beta"] < math.inf for m in self.alpha_mags):
                raise ConfigError(f"sweep.alpha_mags: mag^2 + |beta|^2 overflows a float, got {self.alpha_mags}")

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


def format_float(v: float) -> str:
    """The text of a number in an echo and a report: its 17 significant
    digits as "%.17g" writes them, nan and inf as nan and inf."""
    return "%.17g" % v


def _fmt_complex(v: complex) -> str:
    return "%.17g%+.17gj" % (v.real, v.imag)


def _fmt_floats(values: tuple[float, ...]) -> str:
    return ", ".join(format_float(v) for v in values)


# Every key of [run], [state] and [sweep], in echo order: its section, its
# name, the ExperimentConfig field it sets, the parser of its text, its echo
# and the kinds that read it.  This is the one place such a key is declared;
# the coupling blocks are declared by SI_FIELDS, _DIRECT_FIELDS and
# BLOCK_READERS.
CONFIG_KEYS = (
    ("run", "kind", "kind", _parse_text, str, KINDS),
    ("run", "seed", "seed", _parse_int, str, KINDS),
    ("run", "oracle", "oracle", _parse_text, str, ("swap", "cat_state")),
    ("run", "samples", "samples", _parse_int, str, ("swap", "rwa_validity", "cat_state")),
    ("run", "models", "models", _parse_models, lambda ms: ", ".join(m.value for m in ms), ("swap", "cat_state")),
    ("state", "alpha", "alpha", _parse_complex, _fmt_complex, ("swap", "feasibility")),
    ("state", "beta", "beta", _parse_complex, _fmt_complex, ("swap", "rwa_validity", "cat_state")),
    ("state", "cat_alpha", "cat_alpha", _parse_complex, _fmt_complex, ("cat_state",)),
    ("state", "random_pairs", "random_pairs", _parse_int, str, ("swap",)),
    ("sweep", "alpha_mags", "alpha_mags", _parse_float_list, _fmt_floats, ("rwa_validity",)),
    ("sweep", "deltas", "deltas", _parse_float_list, _fmt_floats, ("rwa_validity",)),
)

# The keys of a [params] or [platform:NAME] block besides `preset`, each with
# the field it sets, in echo order: the SI keys set a PhysicalParams, the
# direct keys the coupling of a Platform.
SI_FIELDS = {"mass_kg": "mass", "omega_rad_s": "omega", "separation_m": "separation"}
_DIRECT_FIELDS = {"delta": "delta"}
_PARAMS_KEYS = {"preset", *SI_FIELDS, *_DIRECT_FIELDS}

# the kinds that read [params], and the platform ladder: run.platforms and its [platform:NAME] sections
BLOCK_READERS = {"params": ("swap", "cat_state"), "platform": ("feasibility",)}

# the kinds that read each ExperimentConfig field, which alone they validate
FIELD_READERS = {name: readers for _, _, name, *_, readers in CONFIG_KEYS}
FIELD_READERS.update(platform=BLOCK_READERS["params"], platforms=BLOCK_READERS["platform"])

# the keys of each section, in echo order of the sections, and the kinds that read each key
_SECTION_KEYS: dict[str, set[str]] = {"run": {"platforms"}, "params": _PARAMS_KEYS}
_READERS = {("run", "platforms"): BLOCK_READERS["platform"]}
for _section, _key, *_, _readers in CONFIG_KEYS:
    _SECTION_KEYS.setdefault(_section, set()).add(_key)
    _READERS[_section, _key] = _readers


def refuse_unread(kind: str, section: str, key: str) -> None:
    """Refuses a key that a run of `kind` never reads, before its value is
    judged: it would have no effect."""
    if kind not in BLOCK_READERS.get(section.partition(":")[0], _READERS.get((section, key), ())):
        raise ConfigError(f"{section}.{key}: a {kind} run never reads it")


def parse_config(path: str | Path) -> ExperimentConfig:
    """The config of a file, whose source digest is the hash of its bytes."""
    path = Path(path)
    try:
        data = path.read_bytes()
        text = data.decode("utf-8").removeprefix("\ufeff")  # as utf-8-sig, without loading that codec
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    cfg = parse_config_text(text, source=str(path))
    return dataclasses.replace(cfg, source_digest="sha256:" + sha256(data).hexdigest())


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
    if run["kind"] in KINDS:  # else ExperimentConfig refuses the kind by name
        for section, entries in sections.items():
            for key in entries:
                refuse_unread(run["kind"], section, key)

    kwargs: dict = {}
    for section, key, name, parse, *_ in CONFIG_KEYS:
        raw = sections.get(section, {}).get(key)
        if raw is not None:
            kwargs[name] = parse(raw, f"{section}.{key}")
    cfg = ExperimentConfig(**kwargs)  # checks these keys, the kind first
    blocks = {"platform": _build_platform("params", sections["params"])} if sections.get("params") else {}

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
    `preset`; the SI keys; or `delta`.  A key of any
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
    return [f"{key} = {format_float(getattr(source, field))}" for key, field in fields.items()]


def format_config(cfg: ExperimentConfig) -> str:
    """Canonical text form of the fully resolved keys and coupling block the
    config's kind reads; a field it never reads is neither echoed nor digested."""
    blocks: dict[str, list[str]] = {section: [] for section in _SECTION_KEYS}
    for section, key, name, _, echo, readers in CONFIG_KEYS:
        if cfg.kind in readers:
            blocks[section].append(f"{key} = {echo(getattr(cfg, name))}")
    if cfg.kind in BLOCK_READERS["params"]:
        blocks["params"] = _platform_lines(cfg.platform)
    ladder = cfg.platforms if cfg.kind in BLOCK_READERS["platform"] else ()
    if ladder:
        blocks["run"].append("platforms = " + ", ".join(p.name for p in ladder))
    sections = [(section, lines) for section, lines in blocks.items() if lines]
    sections += [(f"platform:{p.name}", _platform_lines(p)) for p in ladder]
    return "\n\n".join("\n".join([f"[{section}]", *lines]) for section, lines in sections) + "\n"


def config_digest(cfg: ExperimentConfig) -> str:
    return "sha256:" + sha256(format_config(cfg).encode("utf-8")).hexdigest()
