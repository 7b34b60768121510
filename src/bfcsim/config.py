"""Run configuration: key-value text schema, presets, and validation.

The config format is a flat sectioned key-value text, e.g.::

    [cavity] preset="45ghz"
    [source] bpm_ghz=245, envelope="sinc_squared", pump_mw=2
    [hom] window_ps=340, step_ps=0.2
    [jsi] filter_fwhm_pm=300, max_bin=2, pump_mw=2
    [chsh] fringe_visibility=0.9796, chsh_visibility=0.9497, seed=12345
    [output] dir="out"

Pairs may follow the section tag on the same line (comma-separated) or
appear on their own lines.  Unknown sections or keys are errors; values
are validated by the domain types they construct.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field

from .comb import (
    CAVITY_PRESETS,
    CavitySpec,
    SourceSpec,
    cavity_preset,
    default_n_max,
)
from .jsi import DEFAULT_ACCIDENTAL_MODEL

TOOL_VERSION = "0.1.0"
SCHEMA_VERSION = "1"


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
        if self.max_bin < 0:
            raise ConfigError("[jsi] max_bin must be >= 0")
        if self.pump_power_mw < 0.0:
            raise ConfigError("[jsi] pump_mw must be >= 0")
        floor = DEFAULT_ACCIDENTAL_MODEL.floor_fraction(self.pump_power_mw)
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


# Per-preset defaults for the JSI scan, matching the filter bandwidths and
# scan ranges each cavity was measured with.
_JSI_PRESET_DEFAULTS = {
    "45ghz": {"filter_fwhm_pm": 300.0, "max_bin": 2},
    "15ghz": {"filter_fwhm_pm": 100.0, "max_bin": 8},
    "5ghz": {"filter_fwhm_pm": 100.0, "max_bin": 9},
}


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
        return {
            "cavity": {
                "fsr_hz": self.cavity.fsr_hz,
                "linewidth_fwhm_hz": self.cavity.linewidth_fwhm_hz,
                "label": self.cavity.label,
            },
            "source": {
                "phase_matching_fwhm_hz": self.source.phase_matching_fwhm_hz,
                "envelope_shape": self.source.envelope_shape,
                "pump_power_mw": self.source.pump_power_mw,
                "degenerate_wavelength_nm": self.source.degenerate_wavelength_nm,
            },
            "n_max": self.resolved_n_max(),
            "hom": {
                "window_ps": self.hom.window_ps,
                "step_ps": self.hom.step_ps,
                "accidental_fraction": self.hom.accidental_fraction,
            },
            "jsi": {
                "filter_fwhm_pm": self.jsi.filter_fwhm_pm,
                "filter_shape": self.jsi.filter_shape,
                "max_bin": self.jsi.max_bin,
                "pump_power_mw": self.jsi.pump_power_mw,
            },
            "chsh": {
                "fringe_visibility": self.chsh.fringe_visibility,
                "chsh_visibility": self.chsh.chsh_visibility,
                "integration": self.chsh.integration,
                "seed": self.chsh.seed,
            },
            "preset": self.preset_name,
            "schema_version": SCHEMA_VERSION,
        }

    def config_hash(self) -> str:
        # Hash of the scientific configuration only: where artifacts land
        # must not change their contents.
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


_KNOWN_KEYS = {
    "cavity": {"preset", "fsr_ghz", "linewidth_ghz", "label"},
    "source": {"bpm_ghz", "envelope", "pump_mw", "wavelength_nm"},
    "comb": {"n_max"},
    "hom": {"window_ps", "step_ps", "accidentals"},
    "jsi": {"filter_fwhm_pm", "filter_shape", "max_bin", "pump_mw"},
    "chsh": {"fringe_visibility", "chsh_visibility", "integration", "seed"},
    "output": {"dir"},
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


def _require_number(sections: dict, section: str, key: str, value) -> float:
    if not isinstance(value, (int, float)):
        raise ConfigError(f"[{section}] {key} must be a number, got {value!r}")
    _require_finite(section, **{key: value})
    return float(value)


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
        try:
            cavity = CavitySpec(
                fsr_hz=_require_number(sections, "cavity", "fsr_ghz", cav["fsr_ghz"]) * 1e9,
                linewidth_fwhm_hz=_require_number(
                    sections, "cavity", "linewidth_ghz", cav["linewidth_ghz"]
                )
                * 1e9,
                label=str(cav.get("label", "custom")),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    src = sections.get("source", {})
    try:
        source = SourceSpec(
            phase_matching_fwhm_hz=float(src.get("bpm_ghz", 245.0)) * 1e9,
            envelope_shape=str(src.get("envelope", "sinc_squared")),
            pump_power_mw=float(src.get("pump_mw", 2.0)),
            degenerate_wavelength_nm=float(src.get("wavelength_nm", 1316.0)),
        )
    except ValueError as exc:
        raise ConfigError(f"[source] {exc}") from exc
    _require_finite(
        "source",
        bpm_ghz=source.phase_matching_fwhm_hz,
        pump_mw=source.pump_power_mw,
        wavelength_nm=source.degenerate_wavelength_nm,
    )

    comb_sec = sections.get("comb", {})
    n_max = comb_sec.get("n_max")
    if n_max is not None:
        if not isinstance(n_max, int) or n_max < 0:
            raise ConfigError("[comb] n_max must be a nonnegative integer")

    hom_sec = sections.get("hom", {})
    hom = HomConfig(
        window_ps=float(hom_sec.get("window_ps", 340.0)),
        step_ps=float(hom_sec.get("step_ps", 0.2)),
        accidental_fraction=float(hom_sec.get("accidentals", 0.0)),
    )

    jsi_defaults = _JSI_PRESET_DEFAULTS.get(preset_name, {})
    jsi_sec = sections.get("jsi", {})
    jsi = JsiConfig(
        filter_fwhm_pm=float(jsi_sec.get("filter_fwhm_pm", jsi_defaults.get("filter_fwhm_pm", 300.0))),
        filter_shape=str(jsi_sec.get("filter_shape", "gaussian")),
        max_bin=jsi_sec.get("max_bin", jsi_defaults.get("max_bin", 2)),
        pump_power_mw=float(jsi_sec.get("pump_mw", source.pump_power_mw)),
    )

    chsh_sec = sections.get("chsh", {})
    chsh = ChshConfig(
        fringe_visibility=float(chsh_sec.get("fringe_visibility", 0.9796)),
        chsh_visibility=float(chsh_sec.get("chsh_visibility", 0.9497)),
        integration=float(chsh_sec.get("integration", 10000.0)),
        seed=chsh_sec.get("seed", 12345),
    )

    out = output_dir or str(sections.get("output", {}).get("dir", "out"))
    return RunConfig(
        cavity=cavity,
        source=source,
        n_max=n_max,
        hom=hom,
        jsi=jsi,
        chsh=chsh,
        output_dir=out,
        preset_name=preset_name,
    )


def load_config(path: str, output_dir: str | None = None) -> RunConfig:
    """Read, parse, and validate a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return build_config(parse_config_text(text), output_dir=output_dir)


def preset_config(name: str, output_dir: str | None = None, seed: int | None = None) -> RunConfig:
    """RunConfig for a named cavity preset with all defaults applied."""
    sections: dict[str, dict] = {"cavity": {"preset": name}}
    if seed is not None:
        sections["chsh"] = {"seed": seed}
    return build_config(sections, output_dir=output_dir)


def available_presets() -> list[str]:
    return sorted(CAVITY_PRESETS)
