"""Strict key-value configuration: parsing, validation, canonical echo.

Format: `key = value` lines grouped under `[section]` headers, `#` comments.
Unknown keys and sections are rejected outright so a typo can never fall back
to a physics default silently.  The [params] block and each [platform:NAME]
section share one builder and one echo; a key the section's parameterization
does not take is refused, never dropped, and so is the platform block the
run's kind never reads.  `format_config` renders the fully resolved
configuration (defaults applied) in a canonical order with full float
precision; parse(format(cfg)) == cfg.
"""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path

from .analytic import MODEL_BY_NAME, ModelKind
from .experiments import (
    ConfigError,
    ExperimentConfig,
    KINDS,
    ORACLES,
    Platform,
    Tolerances,
    preset_platform,
)
from .params import PhysicalParams, PLATFORM_PRESETS


def _parse_float(raw: str, path: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{path}: expected a number, got {raw!r}") from None


def _parse_int(raw: str, path: str) -> int:
    try:
        return int(raw, 0)
    except ValueError:
        raise ConfigError(f"{path}: expected an integer, got {raw!r}") from None


def _parse_complex(raw: str, path: str) -> complex:
    text = raw.replace(" ", "").replace("i", "j")
    try:
        return complex(text)
    except ValueError:
        raise ConfigError(f"{path}: expected a complex number like 1+2j, got {raw!r}") from None


def _parse_float_list(raw: str, path: str) -> tuple[float, ...]:
    items = [s.strip() for s in raw.split(",") if s.strip()]
    if not items:
        raise ConfigError(f"{path}: expected a comma-separated list of numbers")
    return tuple(_parse_float(s, path) for s in items)


def _parse_models(raw: str, path: str) -> tuple[ModelKind, ...]:
    names = [s.strip() for s in raw.split(",") if s.strip()]
    out = []
    for name in names:
        if name not in MODEL_BY_NAME:
            raise ConfigError(f"{path}: unknown model {name!r}; expected {sorted(MODEL_BY_NAME)}")
        out.append(MODEL_BY_NAME[name])
    if not out:
        raise ConfigError(f"{path}: at least one model required")
    return tuple(out)


def _parse_choice(raw: str, path: str, choices) -> str:
    if raw not in choices:
        raise ConfigError(f"{path}: expected one of {tuple(choices)}, got {raw!r}")
    return raw


_RUN_KEYS = {"kind", "seed", "out", "oracle", "samples", "models", "platforms", "timestamp"}
_PARAMS_KEYS = {"delta", "omega", "preset", "mass_kg", "omega_rad_s", "separation_m", "grav_constant", "hbar"}
_STATE_KEYS = {"alpha", "beta", "cat_alpha", "random_pairs"}
_SWEEP_KEYS = {"alpha_mags", "deltas"}
_NUMERICS_KEYS = {"grid_points", "grid_half_extent", "dt_factor", "rk_step_factor"}
_TOLERANCE_KEYS = {f.name for f in dataclasses.fields(Tolerances)}
_SECTION_KEYS = {
    "run": _RUN_KEYS,
    "params": _PARAMS_KEYS,
    "state": _STATE_KEYS,
    "sweep": _SWEEP_KEYS,
    "numerics": _NUMERICS_KEYS,
    "tolerances": _TOLERANCE_KEYS,
}
_SI_KEYS = ("mass_kg", "omega_rad_s", "separation_m")


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

    def get(section: str, key: str) -> str | None:
        return sections.get(section, {}).get(key)

    if get("run", "kind") is None:
        raise ConfigError(f"{source}: run.kind is required")
    kind = _parse_choice(get("run", "kind"), "run.kind", KINDS)

    # feasibility reads only the platform ladder, every other kind only the
    # [params] block; the block a kind never reads would have no effect
    if kind == "feasibility" and sections.get("params"):
        key = next(iter(sections["params"]))
        raise ConfigError(f"params.{key}: a {kind} run never reads [params]; list its platforms in run.platforms")
    if kind != "feasibility" and get("run", "platforms") is not None:
        raise ConfigError(f"run.platforms: a {kind} run never reads a platform ladder; give its coupling in [params]")

    kwargs: dict = {"kind": kind}
    if get("run", "seed") is not None:
        kwargs["seed"] = _parse_int(get("run", "seed"), "run.seed")
    if get("run", "out") is not None:
        kwargs["out_dir"] = get("run", "out")
    if get("run", "timestamp") is not None:
        kwargs["timestamp"] = get("run", "timestamp")
    if get("run", "oracle") is not None:
        kwargs["oracle"] = _parse_choice(get("run", "oracle"), "run.oracle", ORACLES)
    if get("run", "samples") is not None:
        kwargs["samples"] = _parse_int(get("run", "samples"), "run.samples")
    if get("run", "models") is not None:
        kwargs["models"] = _parse_models(get("run", "models"), "run.models")

    if sections.get("params"):
        kwargs["platform"] = _build_platform("params", sections["params"])

    for key, parser in (
        ("alpha", _parse_complex),
        ("beta", _parse_complex),
        ("cat_alpha", _parse_complex),
    ):
        if get("state", key) is not None:
            kwargs[key] = parser(get("state", key), f"state.{key}")
    if get("state", "random_pairs") is not None:
        kwargs["random_pairs"] = _parse_int(get("state", "random_pairs"), "state.random_pairs")

    if get("sweep", "alpha_mags") is not None:
        kwargs["alpha_mags"] = _parse_float_list(get("sweep", "alpha_mags"), "sweep.alpha_mags")
    if get("sweep", "deltas") is not None:
        kwargs["deltas"] = _parse_float_list(get("sweep", "deltas"), "sweep.deltas")

    if get("numerics", "grid_points") is not None:
        raw = get("numerics", "grid_points")
        kwargs["grid_points"] = None if raw == "auto" else _parse_int(raw, "numerics.grid_points")
    if get("numerics", "grid_half_extent") is not None:
        raw = get("numerics", "grid_half_extent")
        kwargs["grid_half_extent"] = None if raw == "auto" else _parse_float(raw, "numerics.grid_half_extent")
    if get("numerics", "dt_factor") is not None:
        kwargs["dt_factor"] = _parse_float(get("numerics", "dt_factor"), "numerics.dt_factor")
    if get("numerics", "rk_step_factor") is not None:
        kwargs["rk_step_factor"] = _parse_float(get("numerics", "rk_step_factor"), "numerics.rk_step_factor")

    tol_kwargs = {}
    for key in sorted(_TOLERANCE_KEYS):
        if get("tolerances", key) is not None:
            tol_kwargs[key] = _parse_float(get("tolerances", key), f"tolerances.{key}")
    if tol_kwargs:
        kwargs["tolerances"] = dataclasses.replace(Tolerances(), **tol_kwargs)

    defined = sorted(s.removeprefix("platform:") for s in sections if s.startswith("platform:"))
    platforms_raw = get("run", "platforms")
    if platforms_raw is not None:
        names = [s.strip() for s in platforms_raw.split(",") if s.strip()]
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
        kwargs["platforms"] = tuple(platforms)
    elif defined:
        raise ConfigError("platform sections given without run.platforms listing them")

    try:
        cfg = ExperimentConfig(**kwargs)
        for platform in (cfg.platform, *cfg.platforms):
            platform.dimensionless()  # surface range violations (e.g. delta >= 1/2) at parse time
    except (ConfigError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def _build_platform(path: str, keys: dict[str, str]) -> Platform:
    """The Platform of the [params] block or of a [platform:NAME] section.
    It takes one of three parameterizations: `preset`; the SI keys, with
    optional `grav_constant` and `hbar`; or `delta`, with optional `omega`.
    A key of any other parameterization is refused by name."""
    if "preset" in keys:
        label, allowed = "a preset", {"preset"}
    elif any(k in keys for k in _SI_KEYS):
        label, allowed = "the SI keys", {*_SI_KEYS, "grav_constant", "hbar"}
    elif "delta" in keys:
        label, allowed = "delta", {"delta", "omega"}
    else:
        raise ConfigError(f"{path}: needs preset, delta, or SI keys")
    for key in keys:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: cannot be combined with {label}; give one parameterization, not both")

    def number(key: str) -> float:
        return _parse_float(keys[key], f"{path}.{key}")

    name = path.removeprefix("platform:")
    if "preset" in keys:
        preset = keys["preset"]
        if preset not in PLATFORM_PRESETS:
            raise ConfigError(f"{path}.preset: unknown preset {preset!r}; known: {sorted(PLATFORM_PRESETS)}")
        return Platform(name, physical=PLATFORM_PRESETS[preset])
    if "delta" in keys:
        return Platform(name, delta=number("delta"), omega=number("omega") if "omega" in keys else Platform.omega)
    missing = [k for k in _SI_KEYS if k not in keys]
    if missing:
        raise ConfigError(f"{path}: SI parameterization needs all of {_SI_KEYS}; missing {missing}")
    extra = {k: number(k) for k in ("grav_constant", "hbar") if k in keys}
    physical = PhysicalParams(
        mass=number("mass_kg"), omega=number("omega_rad_s"), separation=number("separation_m"), **extra
    )
    return Platform(name, physical=physical)


def _fmt_float(v: float) -> str:
    return "%.17g" % v


def _fmt_complex(v: complex) -> str:
    return "%.17g%+.17gj" % (v.real, v.imag)


def _platform_lines(platform: Platform) -> list[str]:
    """The keys of a [params] or [platform:NAME] block; a preset is echoed
    as its SI values, and the block's name is the caller's to write."""
    p = platform.physical
    if p is None:
        return [f"delta = {_fmt_float(platform.delta)}", f"omega = {_fmt_float(platform.omega)}"]
    return [
        f"mass_kg = {_fmt_float(p.mass)}",
        f"omega_rad_s = {_fmt_float(p.omega)}",
        f"separation_m = {_fmt_float(p.separation)}",
        f"grav_constant = {_fmt_float(p.grav_constant)}",
        f"hbar = {_fmt_float(p.hbar)}",
    ]


def format_config(cfg: ExperimentConfig) -> str:
    """Canonical text form of the fully resolved configuration.  A run reads
    one coupling or a ladder of platforms, never both: feasibility reads
    `run.platforms` and the [platform:NAME] sections, every other kind the
    [params] block, and the echo writes only the one its kind reads."""
    ladder = cfg.kind == "feasibility"
    lines = ["[run]"]
    lines.append(f"kind = {cfg.kind}")
    lines.append(f"seed = {cfg.seed}")
    lines.append(f"oracle = {cfg.oracle}")
    lines.append(f"samples = {cfg.samples}")
    lines.append("models = " + ", ".join(m.value for m in cfg.models))
    if cfg.out_dir is not None:
        lines.append(f"out = {cfg.out_dir}")
    if cfg.timestamp is not None:
        lines.append(f"timestamp = {cfg.timestamp}")
    if ladder:
        lines.append("platforms = " + ", ".join(p.name for p in cfg.platforms))
    else:
        lines.append("")
        lines.append("[params]")
        lines.extend(_platform_lines(cfg.platform))
    lines.append("")
    lines.append("[state]")
    lines.append(f"alpha = {_fmt_complex(cfg.alpha)}")
    lines.append(f"beta = {_fmt_complex(cfg.beta)}")
    lines.append(f"cat_alpha = {_fmt_complex(cfg.cat_alpha)}")
    lines.append(f"random_pairs = {cfg.random_pairs}")
    lines.append("")
    lines.append("[sweep]")
    lines.append("alpha_mags = " + ", ".join(_fmt_float(v) for v in cfg.alpha_mags))
    lines.append("deltas = " + ", ".join(_fmt_float(v) for v in cfg.deltas))
    lines.append("")
    lines.append("[numerics]")
    lines.append(f"grid_points = {'auto' if cfg.grid_points is None else cfg.grid_points}")
    extent = "auto" if cfg.grid_half_extent is None else _fmt_float(cfg.grid_half_extent)
    lines.append(f"grid_half_extent = {extent}")
    lines.append(f"dt_factor = {_fmt_float(cfg.dt_factor)}")
    lines.append(f"rk_step_factor = {_fmt_float(cfg.rk_step_factor)}")
    lines.append("")
    lines.append("[tolerances]")
    for f in dataclasses.fields(Tolerances):
        lines.append(f"{f.name} = {_fmt_float(getattr(cfg.tolerances, f.name))}")
    for platform in cfg.platforms if ladder else ():
        lines.append("")
        lines.append(f"[platform:{platform.name}]")
        lines.extend(_platform_lines(platform))
    lines.append("")
    return "\n".join(lines)


def config_digest(cfg: ExperimentConfig) -> str:
    return "sha256:" + hashlib.sha256(format_config(cfg).encode("utf-8")).hexdigest()
