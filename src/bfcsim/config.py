"""Run configuration: key-value text schema, presets, and validation.

The config format is a flat sectioned key-value text, e.g.::

    [cavity] preset="45ghz"
    [source] bpm_ghz=245, envelope="sinc_squared", pump_mw=2
    [hom] window_ps=340, step_ps=0.2
    [jsi] filter_fwhm_pm=300, max_bin=2, pump_mw=2
    [chsh] fringe_visibility=0.9796, chsh_visibility=0.9497, seed=12345
    [output] dir="out"

Pairs may follow the section tag on the same line (comma-separated) or
appear on their own lines.  Unknown sections or keys are errors.  Each
setting's default and range check live on the dataclass that holds it;
a key missing from the file takes that default.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import re
from dataclasses import dataclass, field

from .comb import CavitySpec, SourceSpec, cavity_preset, default_n_max
from .jsi import FILTER_SHAPES, floor_fraction

TOOL_VERSION = "0.1.0"
SCHEMA_VERSION = "1"

# Largest HOM delay grid a config may ask for, 2 * window_ps / step_ps + 1
# delays; the default grid has 3,401.
MAX_HOM_DELAYS = 1_000_000


class ConfigError(ValueError):
    """Config file failed to parse or validate."""


def _require_finite(section: str, **values: float) -> None:
    for key, value in values.items():
        if not math.isfinite(value):
            raise ConfigError(f"[{section}] {key} must be finite, got {value!r}")


def _require_integer(section: str, **values) -> None:
    for key, value in values.items():
        if isinstance(value, float):
            _require_finite(section, **{key: value})
        if not isinstance(value, int):
            raise ConfigError(f"[{section}] {key} must be an integer, got {value!r}")


@dataclass(frozen=True)
class HomConfig:
    window_ps: float = 340.0
    step_ps: float = 0.2
    accidental_fraction: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(
            "hom",
            window_ps=self.window_ps,
            step_ps=self.step_ps,
            accidentals=self.accidental_fraction,
        )
        if self.window_ps <= 0.0 or self.step_ps <= 0.0:
            raise ConfigError("[hom] window_ps and step_ps must be positive")
        if not (0.0 <= self.accidental_fraction < 1.0):
            raise ConfigError("[hom] accidentals must lie in [0, 1)")
        n_delays = 2.0 * self.window_ps / self.step_ps + 1.0
        if n_delays > MAX_HOM_DELAYS:
            raise ConfigError(
                f"[hom] window_ps={self.window_ps!r} and step_ps={self.step_ps!r} give "
                f"{n_delays:.4g} delays; at most {MAX_HOM_DELAYS} are allowed"
            )


@dataclass(frozen=True)
class JsiConfig:
    filter_fwhm_pm: float = 300.0
    filter_shape: str = "gaussian"
    max_bin: int = 2
    pump_power_mw: float = 2.0

    def __post_init__(self) -> None:
        _require_finite("jsi", filter_fwhm_pm=self.filter_fwhm_pm, pump_mw=self.pump_power_mw)
        _require_integer("jsi", max_bin=self.max_bin)
        if self.filter_fwhm_pm < 0.0:
            raise ConfigError("[jsi] filter_fwhm_pm must be >= 0")
        if self.filter_shape not in FILTER_SHAPES:
            raise ConfigError(
                f"[jsi] filter_shape must be one of {FILTER_SHAPES}, got {self.filter_shape!r}"
            )
        if self.max_bin < 0:
            raise ConfigError("[jsi] max_bin must be >= 0")
        if self.pump_power_mw < 0.0:
            raise ConfigError("[jsi] pump_mw must be >= 0")
        floor = floor_fraction(self.pump_power_mw)
        if floor >= 1.0:
            raise ConfigError(
                f"[jsi] pump_mw={self.pump_power_mw!r} puts the accidental floor at "
                f"{floor:.3f} of the peak cell; it must stay below 1"
            )


@dataclass(frozen=True)
class ChshConfig:
    fringe_visibility: float = 0.9796
    chsh_visibility: float = 0.9497
    integration: float = 10000.0
    seed: int = 12345

    def __post_init__(self) -> None:
        _require_finite(
            "chsh",
            fringe_visibility=self.fringe_visibility,
            chsh_visibility=self.chsh_visibility,
            integration=self.integration,
        )
        _require_integer("chsh", seed=self.seed)
        for name, v in (
            ("fringe_visibility", self.fringe_visibility),
            ("chsh_visibility", self.chsh_visibility),
        ):
            if not (0.0 <= v <= 1.0):
                raise ConfigError(f"[chsh] {name} must lie in [0, 1]")
        if self.integration <= 0.0:
            raise ConfigError("[chsh] integration must be > 0")
        if self.seed < 0:
            raise ConfigError(f"[chsh] seed must be >= 0, got {self.seed!r}")


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
        if self.n_max is not None and (not isinstance(self.n_max, int) or self.n_max < 0):
            raise ConfigError("[comb] n_max must be a nonnegative integer")
        # The report locates revival dips and fits the time-bin spectrum,
        # both of which need the dips at +/- one period inside the scan.
        period = 0.5 * self.cavity.round_trip_ps
        if self.hom.window_ps < period:
            raise ConfigError(
                f"[hom] window_ps={self.hom.window_ps!r} is shorter than one revival "
                f"period ({period:.4f} ps, half the cavity round trip)"
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


# File key -> (dataclass field, conversion) per section.  A number scales
# float() of the value into the field's unit; `str` and `int` fields take
# the value as written, and the dataclass checks integers.
_FIELDS = {
    "cavity": {
        "fsr_ghz": ("fsr_hz", 1e9),
        "linewidth_ghz": ("linewidth_fwhm_hz", 1e9),
        "label": ("label", str),
    },
    "source": {
        "bpm_ghz": ("phase_matching_fwhm_hz", 1e9),
        "envelope": ("envelope_shape", str),
        "pump_mw": ("pump_power_mw", 1.0),
        "wavelength_nm": ("degenerate_wavelength_nm", 1.0),
    },
    "comb": {"n_max": ("n_max", int)},
    "hom": {
        "window_ps": ("window_ps", 1.0),
        "step_ps": ("step_ps", 1.0),
        "accidentals": ("accidental_fraction", 1.0),
    },
    "jsi": {
        "filter_fwhm_pm": ("filter_fwhm_pm", 1.0),
        "filter_shape": ("filter_shape", str),
        "max_bin": ("max_bin", int),
        "pump_mw": ("pump_power_mw", 1.0),
    },
    "chsh": {
        "fringe_visibility": ("fringe_visibility", 1.0),
        "chsh_visibility": ("chsh_visibility", 1.0),
        "integration": ("integration", 1.0),
        "seed": ("seed", int),
    },
    "output": {"dir": ("output_dir", str)},
}

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


def _parse_value(raw: str, line_no: int, key: str):
    raw = raw.strip()
    if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in "\"'":
        return raw[1:-1]
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    if re.fullmatch(r"[\w.+-]+", raw):
        return raw
    raise ConfigError(f"line {line_no}: cannot parse value {raw!r} for key {key!r}")


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
            sections[current][key] = _parse_value(pm.group(2), line_no, key)
    return sections


def _fields(sections: dict[str, dict], section: str) -> dict:
    """The section's file keys as dataclass fields, converted; absent keys are left out."""
    out = {}
    for key, value in sections.get(section, {}).items():
        name, convert = _FIELDS[section][key]
        if isinstance(convert, float):
            try:
                number = float(value)
            except ValueError:
                raise ConfigError(f"[{section}] {key} must be a number, got {value!r}") from None
            # CavitySpec and SourceSpec accept inf and nan.
            _require_finite(section, **{key: number})
            value = number * convert
        elif convert is str:
            value = str(value)
        out[name] = value
    return out


def _construct(section: str, cls, kwargs: dict):
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
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
        preset_name = str(cav["preset"]).lower()
        cavity = cavity_preset(preset_name)
    else:
        if "fsr_ghz" not in cav or "linewidth_ghz" not in cav:
            raise ConfigError("[cavity] requires both fsr_ghz and linewidth_ghz (or a preset)")
        cavity = _construct("cavity", CavitySpec, _fields(sections, "cavity"))

    source = _construct("source", SourceSpec, _fields(sections, "source"))
    jsi = {
        "pump_power_mw": source.pump_power_mw,
        **_JSI_PRESET_DEFAULTS.get(preset_name, {}),
        **_fields(sections, "jsi"),
    }
    run = {**_fields(sections, "comb"), **_fields(sections, "output")}
    if output_dir:
        run["output_dir"] = output_dir
    return RunConfig(
        cavity=cavity,
        source=source,
        hom=_construct("hom", HomConfig, _fields(sections, "hom")),
        jsi=_construct("jsi", JsiConfig, jsi),
        chsh=_construct("chsh", ChshConfig, _fields(sections, "chsh")),
        preset_name=preset_name,
        **run,
    )


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
