"""Run manifests and the line-oriented experiment config format.

A config file holds exactly one section, ``[eprb]``, ``[ghzm]`` or
``[sweep]``, followed by ``key = value`` lines. ``#`` starts a comment,
blank lines are ignored, angles are given in degrees, and list values are
space-separated. Unknown sections or keys are hard errors, never silently
ignored. Angles stay in degrees throughout the manifest; conversion to
radians happens once, where directions are built for the pipelines.

``_SCHEMAS`` is the one list of each command's keys, with the parser that
types a value and the default. A command-line flag sets the same key
(``--beta-preset`` sets ``beta_preset``) and is typed by the same parser;
the flags override the file's values before defaults and checks apply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .eprb import EPRB
from .experiment import Experiment
from .ghzm import GHZM
from .tensor import DEFAULT_TOL

CONFIG_SECTIONS = ("eprb", "ghzm", "sweep")
#: The experiment definitions by name: the ``eprb``/``ghzm`` commands and
#: the values of the ``experiment`` key.
EXPERIMENTS = {e.name: e for e in (EPRB, GHZM)}

_REQUIRED = object()


class ConfigError(ValueError):
    """Malformed config text or invalid manifest values."""


@dataclass
class RunManifest:
    command: str
    parameters: dict = field(default_factory=dict)
    output_format: str = "table"
    verify: bool = False
    tolerance: float = DEFAULT_TOL


@dataclass(frozen=True)
class _Key:
    parse: Callable[[str], object]
    default: object = _REQUIRED


def _parse_float(s: str) -> float:
    try:
        return float(s)
    except ValueError:
        raise ConfigError(f"expected a number, got {s!r}") from None


def _parse_bool(s: str) -> bool:
    if s == "true":
        return True
    if s == "false":
        return False
    raise ConfigError(f"expected true or false, got {s!r}")


def _parse_floats(s: str) -> tuple[float, ...]:
    parts = s.split()
    if not parts:
        raise ConfigError("expected at least one number")
    return tuple(_parse_float(p) for p in parts)


def _choice(*options: str) -> Callable[[str], str]:
    def parse(s: str) -> str:
        if s not in options:
            raise ConfigError(f"expected one of {options}, got {s!r}")
        return s

    return parse


_RUN_KEYS = {
    "format": _Key(_choice("table", "csv"), "table"),
    "verify": _Key(_parse_bool, False),
    "tol": _Key(_parse_float, DEFAULT_TOL),
}


def _experiment_keys(
    experiment: Experiment, parse_angle: Callable[[str], object], theta_default
) -> dict[str, _Key]:
    """Angles (theta defaulting, phi required), entangler switch and preset
    (default: the first) of one experiment definition."""
    keys = {k: _Key(parse_angle, theta_default) if k.startswith("theta") else _Key(parse_angle)
            for k in experiment.angle_keys}
    preset = _Key(_choice(*experiment.presets), next(iter(experiment.presets)))
    return {**keys, "entangled": _Key(_parse_bool, True), experiment.preset_key: preset}


# the experiment with the most angles goes first, so that sweep keys keep the
# order theta1, phi1, ..., entangled, preset whichever experiment is chosen
_SWEEP_KEYS = {k: v for e in sorted(EXPERIMENTS.values(), key=lambda e: -len(e.measurements))
               for k, v in _experiment_keys(e, _parse_floats, (90.0,)).items()}
#: analyze's analyzers lie in the theta = 90 deg plane, the k-th at phi = 120 (k - 1) deg
_ANALYZE_ANGLES = {
    k: _Key(_parse_float,
            90.0 if k.startswith("theta") else 120.0 * (int(k.removeprefix("phi")) - 1))
    for k in max((e.angle_keys for e in EXPERIMENTS.values()), key=len)
}

_SCHEMAS: dict[str, dict[str, _Key]] = {
    **{name: {**_experiment_keys(e, _parse_float, 90.0), **_RUN_KEYS}
       for name, e in EXPERIMENTS.items()},
    "sweep": {
        "experiment": _Key(_choice(*EXPERIMENTS)),
        **_SWEEP_KEYS,
        **{**_RUN_KEYS, "format": _Key(_choice("table", "csv"), "csv")},
    },
    "bell-q": {
        "phis": _Key(_parse_floats, (0.0, 120.0, 240.0)),
        **_RUN_KEYS,
    },
    "ghz-table": dict(_RUN_KEYS),
    # lhv and analyze have no state-evolution cross-check; the instruction-set
    # bounds are exact, and analyze's tolerance is its triviality threshold
    "lhv": {
        "which": _Key(_choice("eprb", "ghz", "both"), "both"),
        "format": _RUN_KEYS["format"],
    },
    "analyze": {
        "experiment": _Key(_choice(*EXPERIMENTS), "eprb"),
        **_ANALYZE_ANGLES,
        "format": _RUN_KEYS["format"],
        "tol": _RUN_KEYS["tol"],
    },
}


def _foreign_keys(experiment: str) -> tuple[str, ...]:
    """Keys that belong only to experiments other than ``experiment``."""
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    own = EXPERIMENTS[experiment].keys
    return tuple(k for e in EXPERIMENTS.values() for k in e.keys if k not in own)


def finalize_manifest(command: str, provided: dict[str, object]) -> RunManifest:
    """Apply defaults and validation to already-typed values."""
    if command not in _SCHEMAS:
        raise ConfigError(f"unknown command {command!r}")
    schema = _SCHEMAS[command]
    unknown = set(provided) - set(schema)
    if unknown:
        raise ConfigError(f"unknown keys for {command!r}: {sorted(unknown)}")

    # sweep and analyze take the keys of one experiment, named by a key
    dropped: tuple[str, ...] = ()
    if "experiment" in schema:
        experiment = provided.get("experiment", schema["experiment"].default)
        if experiment is _REQUIRED:
            raise ConfigError(f"missing required key 'experiment' for {command!r}")
        dropped = _foreign_keys(experiment)
        for key in dropped:
            if key in provided:
                raise ConfigError(f"key {key!r} does not apply to experiment {experiment!r}")

    values: dict[str, object] = {}
    for key, spec in schema.items():
        if key in dropped:
            continue
        if key in provided:
            values[key] = provided[key]
        elif spec.default is not _REQUIRED:
            values[key] = spec.default
        else:
            raise ConfigError(f"missing required key {key!r} for {command!r}")

    if command == "bell-q" and len(values["phis"]) != 3:
        raise ConfigError("bell-q needs exactly three analyzer azimuths")
    # a direction needs finite angles; a sweep axis or bell-q's phis is a tuple
    for key, value in values.items():
        if key.startswith(("theta", "phi")):
            for angle in value if isinstance(value, tuple) else (value,):
                if not math.isfinite(angle):
                    name = "theta" if key.startswith("theta") else "phi"
                    raise ConfigError(f"{key}: analyzer angle {name} must be finite, got {angle}")

    output_format = values.pop("format")
    verify = values.pop("verify", False)
    tolerance = values.pop("tol", DEFAULT_TOL)
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ConfigError(f"tolerance must be finite and positive, got {tolerance}")
    return RunManifest(command, values, output_format, verify, tolerance)


def _read_config(text: str) -> tuple[str, dict[str, object]]:
    """The section of a config document and its typed values, before
    defaults and validation."""
    section: str | None = None
    raw: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, full_line in enumerate(text.splitlines(), start=1):
        line = full_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {lineno}: malformed section header {line!r}")
            name = line[1:-1].strip()
            if name not in CONFIG_SECTIONS:
                raise ConfigError(
                    f"line {lineno}: unknown section {name!r}; expected one of {CONFIG_SECTIONS}"
                )
            if section is not None:
                raise ConfigError(f"line {lineno}: config may hold only one section")
            section = name
            continue
        if section is None:
            raise ConfigError(f"line {lineno}: key assignment before any section header")
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if key not in _SCHEMAS[section]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in section [{section}]")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
        lines[key] = lineno

    if section is None:
        raise ConfigError("config holds no section header")

    typed: dict[str, object] = {}
    for key, value in raw.items():
        try:
            typed[key] = _SCHEMAS[section][key].parse(value)
        except ConfigError as exc:
            raise ConfigError(f"line {lines[key]}: {key}: {exc}") from None
    return section, typed


def parse_config(text: str) -> RunManifest:
    """Parse a config document into a validated manifest."""
    return finalize_manifest(*_read_config(text))
