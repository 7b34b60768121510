"""Run configuration: key-value text schema, presets, and validation.

The config format is a flat sectioned key-value text, e.g.::

    [cavity] preset="45ghz"
    [source] bpm_ghz=245, envelope="sinc_squared", pump_mw=2
    [hom] window_ps=340, step_ps=0.2
    [jsi] filter_fwhm_pm=300, max_bin=2, pump_mw=2
    [chsh] fringe_visibility=0.9796, chsh_visibility=0.9497, seed=12345
    [output] dir="out"

Pairs may follow the section tag on the same line (comma-separated) or
appear on their own lines.  Unknown sections or keys are errors.  Quotes
around a value are optional; the value takes its key's type.  A key
missing from the file takes the default of the dataclass field it sets;
its range check is in its `_FIELDS` row, and the bounds that span keys
are in `RunConfig`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .comb import CavitySpec, SourceSpec, cavity_preset, default_n_max
from .jsi import FILTER_SHAPES, floor_fraction

TOOL_VERSION = "0.1.0"
SCHEMA_VERSION = "2"

# Largest HOM delay grid a config may ask for, 2 * window_ps / step_ps + 1
# delays; the default grid has 3,401.
MAX_HOM_DELAYS = 1_000_000

# The `hom` stage's fine scan of the central dip: +/- 12 ps by 0.02 ps, 1,201 delays.
_ZOOM_DELAYS_PS = np.arange(-12.0, 12.0 + 0.01, 0.02)
_ZOOM_DELAYS_PS.setflags(write=False)

# Largest `[chsh] integration`.  Each Poisson mean is integration times a fringe
# rate of at most 1, and numpy's sampler rejects a mean above about 9.22e18.
MAX_CHSH_INTEGRATION = 1e18

# Largest HOM kernel cost a config may ask for: wide plus zoom delays times the
# n_max + 1 terms of the comb factor.  5ghz at the delay cap is 1.47e8.
MAX_HOM_WORK = 150_000_000


class ConfigError(ValueError):
    """Config file failed to parse or validate."""


# File key -> (dataclass field, conversion, rule) per section, the one place a
# value's type is decided.  A number scales float() of the value into the
# field's unit; an `int` field reads an integer and a `str` field keeps the
# text (see `_fields`).  A rule is a `_RULES` text or the allowed strings;
# `[cavity]` and `[source]` have none, as CavitySpec and SourceSpec check theirs.
_FIELDS = {
    "cavity": {
        "fsr_ghz": ("fsr_hz", 1e9, None),
        "linewidth_ghz": ("linewidth_fwhm_hz", 1e9, None),
        "label": ("label", str, None),
    },
    "source": {
        "bpm_ghz": ("phase_matching_fwhm_hz", 1e9, None),
        "envelope": ("envelope_shape", str, None),
        "pump_mw": ("pump_power_mw", 1.0, None),
        "wavelength_nm": ("degenerate_wavelength_nm", 1.0, None),
    },
    "comb": {"n_max": ("n_max", int, ">= 0")},
    "hom": {
        "window_ps": ("window_ps", 1.0, "> 0"),
        "step_ps": ("step_ps", 1.0, "> 0"),
        "accidentals": ("accidental_fraction", 1.0, "in [0, 1)"),
    },
    "jsi": {
        "filter_fwhm_pm": ("filter_fwhm_pm", 1.0, ">= 0"),
        "filter_shape": ("filter_shape", str, FILTER_SHAPES),
        "max_bin": ("max_bin", int, ">= 0"),
        "pump_mw": ("pump_power_mw", 1.0, ">= 0"),
    },
    "chsh": {
        "fringe_visibility": ("fringe_visibility", 1.0, "in [0, 1]"),
        "chsh_visibility": ("chsh_visibility", 1.0, "in [0, 1]"),
        "integration": ("integration", 1.0, "> 0"),
        "seed": ("seed", int, ">= 0"),
    },
    "output": {"dir": ("output_dir", str, "nonempty")},
}

_RULES = {
    "> 0": lambda v: v > 0,
    ">= 0": lambda v: v >= 0,
    "in [0, 1)": lambda v: 0 <= v < 1,
    "in [0, 1]": lambda v: 0 <= v <= 1,
    "nonempty": bool,
}


def _check(obj, section: str) -> None:
    """Hold each field of `obj` to its `_FIELDS` row: finite, integer, then the rule."""
    for key, (name, convert, rule) in _FIELDS[section].items():
        value = getattr(obj, name)
        if value is None:  # RunConfig.n_max: the comb's default
            continue
        if (isinstance(convert, float) or isinstance(value, float)) and not math.isfinite(value):
            must = "finite"
        elif convert is int and not isinstance(value, int):
            must = "an integer"
        elif isinstance(rule, tuple):
            must = None if value in rule else f"one of {rule}"
        else:
            must = None if _RULES[rule](value) else rule
        if must:
            raise ConfigError(f"[{section}] {key} must be {must}, got {value!r}")


@dataclass(frozen=True)
class HomConfig:
    window_ps: float = 340.0
    step_ps: float = 0.2
    accidental_fraction: float = 0.0

    def __post_init__(self) -> None:
        _check(self, "hom")


@dataclass(frozen=True)
class JsiConfig:
    filter_fwhm_pm: float = 300.0
    filter_shape: str = "gaussian"
    max_bin: int = 2
    pump_power_mw: float = 2.0

    def __post_init__(self) -> None:
        _check(self, "jsi")
        _check_floor("jsi", self.pump_power_mw)


def _check_floor(section: str, pump_mw: float) -> None:
    """The accidental floor at the JSI pump power must stay below the peak cell."""
    try:
        floor = floor_fraction(pump_mw)
    except OverflowError:  # the quadratic term of a pump past ~1e154 mW
        floor = math.inf
    if floor >= 1.0:
        raise ConfigError(
            f"[{section}] pump_mw={pump_mw!r} puts the accidental floor at "
            f"{floor:.3f} of the peak cell; it must stay below 1"
        )


@dataclass(frozen=True)
class ChshConfig:
    fringe_visibility: float = 0.9796
    chsh_visibility: float = 0.9497
    integration: float = 10000.0
    seed: int = 12345

    def __post_init__(self) -> None:
        _check(self, "chsh")
        if self.integration > MAX_CHSH_INTEGRATION:
            raise ConfigError(
                f"[chsh] integration must be <= {MAX_CHSH_INTEGRATION:g}, "
                f"got {self.integration!r}"
            )


@dataclass(frozen=True)
class RunConfig:
    cavity: CavitySpec
    source: SourceSpec = field(default_factory=SourceSpec)
    n_max: int | None = None
    hom: HomConfig = field(default_factory=HomConfig)
    jsi: JsiConfig = field(default_factory=JsiConfig)
    chsh: ChshConfig = field(default_factory=ChshConfig)
    output_dir: str = "out"
    preset_name: str = ""

    def __post_init__(self) -> None:
        hom = self.hom
        n_wide = 2.0 * hom.window_ps / hom.step_ps + 1.0
        if n_wide > MAX_HOM_DELAYS:
            raise ConfigError(
                f"[hom] window_ps={hom.window_ps!r} and step_ps={hom.step_ps!r} give "
                f"{n_wide:.4g} delays; at most {MAX_HOM_DELAYS} are allowed"
            )
        _check(self, "comb")
        _check(self, "output")
        # The report locates revival dips and fits the time-bin spectrum,
        # both of which need the dips at +/- one period inside the scan.
        period = 0.5 * self.cavity.round_trip_ps
        if hom.window_ps < period:
            raise ConfigError(
                f"[hom] window_ps={hom.window_ps!r} is shorter than one revival "
                f"period ({period:.4f} ps, half the cavity round trip)"
            )
        bpm_ghz = self.source.phase_matching_fwhm_hz / 1e9
        try:
            n_max = self.resolved_n_max()
        except OverflowError:  # int(inf): 3 bpm / fsr is past the float range
            raise ConfigError(f"[source] bpm_ghz={bpm_ghz!r} overflows the comb half-count") from None
        n_delays = n_wide + _ZOOM_DELAYS_PS.size
        if n_max + 1 > MAX_HOM_WORK / n_delays:  # int vs float: exact for any n_max
            key = f"[comb] n_max={n_max!r}"
            if self.n_max is None:
                key = f"[source] bpm_ghz={bpm_ghz!r} (n_max {float(n_max):.4g})"
            raise ConfigError(
                f"{key} with {n_wide:.4g} HOM delays and {_ZOOM_DELAYS_PS.size} zoom delays "
                f"asks for more than {MAX_HOM_WORK} delay-bin terms; "
                f"this grid allows n_max <= {int(MAX_HOM_WORK / n_delays) - 1}"
            )

    def resolved_n_max(self) -> int:
        return self.n_max if self.n_max is not None else default_n_max(self.cavity, self.source)

    def to_dict(self) -> dict:
        """The scientific configuration: every field but where artifacts land."""
        out = dataclasses.asdict(self)
        del out["output_dir"], out["preset_name"]
        out.update(
            n_max=self.resolved_n_max(), preset=self.preset_name, schema_version=SCHEMA_VERSION
        )
        return out

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


_KNOWN_KEYS = {section: set(keys) for section, keys in _FIELDS.items()}
_KNOWN_KEYS["cavity"].add("preset")

# Per-preset defaults for the JSI scan, matching the filter bandwidths and
# scan ranges each cavity was measured with; 45ghz takes JsiConfig's own.
_JSI_PRESET_DEFAULTS = {
    "15ghz": {"filter_fwhm_pm": 100.0, "max_bin": 8},
    "5ghz": {"filter_fwhm_pm": 100.0, "max_bin": 9},
}

_SECTION_RE = re.compile(r"^\[(\w+)\]\s*(.*)$")
_PAIR_RE = re.compile(r"^(\w+)\s*=\s*(.+)$")


def parse_config_text(text: str) -> dict[str, dict]:
    """Parse the sectioned key-value schema into nested dicts."""
    sections: dict[str, dict] = {}
    current: str | None = None
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        m = _SECTION_RE.match(line)
        if m:
            current = m.group(1).lower()
            if current not in _KNOWN_KEYS:
                raise ConfigError(f"line {line_no}: unknown section [{current}]")
            sections.setdefault(current, {})
            line = m.group(2).strip()
            if not line:
                continue
        if current is None:
            raise ConfigError(f"line {line_no}: key-value pair outside any [section]")
        for chunk in filter(None, (p.strip() for p in line.split(","))):
            pm = _PAIR_RE.match(chunk)
            if not pm:
                raise ConfigError(f"line {line_no}: expected key=value, got {chunk!r}")
            key = pm.group(1).lower()
            if key not in _KNOWN_KEYS[current]:
                raise ConfigError(f"line {line_no}: unknown key {key!r} in section [{current}]")
            value = pm.group(2)
            if len(value) >= 2 and value[0] == value[-1] and value[0] in "\"'":
                value = value[1:-1]
            sections[current][key] = value
    return sections


def _fields(sections: dict[str, dict], section: str) -> dict:
    """The section's file keys as dataclass fields, converted; absent keys are left out.

    A `str` field keeps the text as written.  An `int` field reads an integer
    text as an int and any other number as a float, which `_check` then names
    as not finite or not an integer; a scaled field reads a float.
    """
    out = {}
    for key, text in sections.get(section, {}).items():
        if key == "preset":  # [cavity]'s, which build_config reads
            continue
        name, convert, _ = _FIELDS[section][key]
        value = text
        if convert is not str:
            for number in (int, float) if convert is int else (float,):
                try:
                    value = number(text)
                    break
                except ValueError:
                    pass
            else:
                raise ConfigError(f"[{section}] {key} must be a number, got {text!r}")
        if isinstance(convert, float):
            # The message names the file key; a huge value can also overflow
            # on conversion to SI units.
            if not math.isfinite(value * convert):
                raise ConfigError(f"[{section}] {key} must be finite, got {value!r}")
            value *= convert
        out[name] = value
    return out


def _construct(section: str, cls, kwargs: dict):
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def build_config(sections: dict[str, dict], output_dir: str | None = None) -> RunConfig:
    """Resolve parsed sections into a validated RunConfig with defaults applied."""
    cav = sections.get("cavity")
    if not cav:
        raise ConfigError("missing [cavity] section: give preset or fsr_ghz/linewidth_ghz")
    preset_name = ""
    if "preset" in cav:
        if "fsr_ghz" in cav or "linewidth_ghz" in cav:
            raise ConfigError("[cavity] give either preset or fsr_ghz/linewidth_ghz, not both")
        preset_name = cav["preset"].lower()
        cavity = dataclasses.replace(cavity_preset(preset_name), **_fields(sections, "cavity"))
    else:
        if "fsr_ghz" not in cav or "linewidth_ghz" not in cav:
            raise ConfigError("[cavity] requires both fsr_ghz and linewidth_ghz (or a preset)")
        cavity = _construct("cavity", CavitySpec, _fields(sections, "cavity"))

    source = _construct("source", SourceSpec, _fields(sections, "source"))
    jsi = _fields(sections, "jsi")
    if "pump_power_mw" not in jsi:  # the JSI scan takes the source's pump
        _check_floor("source", source.pump_power_mw)
    jsi = {
        "pump_power_mw": source.pump_power_mw,
        **_JSI_PRESET_DEFAULTS.get(preset_name, {}),
        **jsi,
    }
    config = RunConfig(
        cavity=cavity,
        source=source,
        hom=HomConfig(**_fields(sections, "hom")),
        jsi=JsiConfig(**jsi),
        chsh=ChshConfig(**_fields(sections, "chsh")),
        preset_name=preset_name,
        **_fields(sections, "comb"),
        **_fields(sections, "output"),
    )
    # `output_dir` replaces the file's dir, which must pass its check all the same.
    return config if output_dir is None else dataclasses.replace(config, output_dir=output_dir)


def load_config(path: str, output_dir: str | None = None) -> RunConfig:
    """Read, parse, and validate a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return build_config(parse_config_text(text), output_dir=output_dir)


def preset_config(name: str, output_dir: str | None = None) -> RunConfig:
    """RunConfig for a named cavity preset with all defaults applied."""
    return build_config({"cavity": {"preset": name}}, output_dir=output_dir)
