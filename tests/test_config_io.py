"""Config parsing/validation and CSV/JSON round trips."""

import json
import math
import re

import numpy as np
import pytest

from bfcsim import ConfigError, load_config, preset_config
from bfcsim.config import ChshConfig, HomConfig, JsiConfig, build_config, parse_config_text
from bfcsim.io import (
    export_json,
    jsi_from_csv,
    jsi_to_csv,
    load_json,
    spectrum_to_csv,
    trace_to_csv,
    visibilities_from_csv,
)
from bfcsim.jsi import Jsi
from bfcsim.schmidt import time_bin_eigenvalues


class TestConfigParsing:
    def test_preset_resolves_cavity(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text('[cavity] preset="45ghz"\n')
        cfg = load_config(str(path))
        assert cfg.cavity.fsr_hz == 45.32e9
        assert cfg.cavity.linewidth_fwhm_hz == 1.56e9
        assert cfg.preset_name == "45ghz"

    def test_inline_and_multiline_pairs(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "[cavity] fsr_ghz=45.32, linewidth_ghz=1.56\n"
            "[source] bpm_ghz=245, envelope=\"gaussian\", pump_mw=2\n"
            "[hom]\n"
            "window_ps = 100\n"
            "step_ps = 0.5\n"
        )
        cfg = load_config(str(path))
        assert cfg.source.envelope_shape == "gaussian"
        assert cfg.hom.window_ps == 100.0

    def test_missing_cavity_section(self):
        with pytest.raises(ConfigError, match=r"\[cavity\]"):
            build_config(parse_config_text("[source] bpm_ghz=245\n"))

    def test_linewidth_exceeding_fsr_cites_invariant(self):
        text = "[cavity] fsr_ghz=1.0, linewidth_ghz=2.0\n"
        with pytest.raises(ConfigError, match="fsr_hz > linewidth_fwhm_hz"):
            build_config(parse_config_text(text))

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text('[cavity] preset="45ghz"\n[hom] wobble=3\n')

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config_text("[plotting] style=fancy\n")

    def test_pair_outside_section(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config_text("window_ps=10\n")

    def test_comments_ignored(self):
        sections = parse_config_text("# a comment\n[cavity] preset=45ghz  # trailing\n")
        assert sections["cavity"]["preset"] == "45ghz"

    def test_preset_and_explicit_cavity_conflict(self):
        text = '[cavity] preset="45ghz", fsr_ghz=45.32\n'
        with pytest.raises(ConfigError, match="not both"):
            build_config(parse_config_text(text))

    def test_preset_jsi_defaults(self):
        cfg = preset_config("5ghz")
        assert cfg.jsi.filter_fwhm_pm == 100.0
        assert cfg.jsi.max_bin == 9
        assert preset_config("45ghz").jsi.filter_fwhm_pm == 300.0

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/path.cfg")

    @pytest.mark.parametrize(
        "text",
        ["[cavity] fsr_ghz=inf, linewidth_ghz=1.56"]
        + [
            f'[cavity] preset="45ghz"\n{line}'
            for line in (
                "[hom] window_ps=inf",
                "[hom] step_ps=nan",
                "[hom] accidentals=nan",
                "[source] bpm_ghz=inf",
                "[source] pump_mw=nan",
                "[source] wavelength_nm=inf",
                "[jsi] filter_fwhm_pm=inf",
                "[jsi] pump_mw=nan",
                "[jsi] max_bin=inf",
                "[chsh] fringe_visibility=nan",
                "[chsh] chsh_visibility=nan",
                "[chsh] integration=inf",
                "[chsh] seed=nan",
                "[jsi] max_bin=2.7",
                "[chsh] seed=1.9",
            )
        ],
    )
    def test_non_finite_values_rejected(self, text):
        key, value = re.search(r"(\w+)=(inf|nan|\d+\.\d+)", text).groups()
        message = "must be finite" if value in ("inf", "nan") else "must be an integer"
        with pytest.raises(ConfigError, match=f"{key} {message}"):
            build_config(parse_config_text(text + "\n"))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: HomConfig(window_ps=math.inf),
            lambda: HomConfig(step_ps=math.nan),
            lambda: JsiConfig(pump_power_mw=math.inf),
            lambda: ChshConfig(integration=math.nan),
            lambda: JsiConfig(max_bin=2.7),
            lambda: ChshConfig(seed=1.9),
        ],
    )
    def test_non_finite_fields_rejected_on_construction(self, make):
        with pytest.raises(ConfigError, match="must be (finite|an integer)"):
            make()

    def test_pump_power_past_the_floor_calibration_rejected(self):
        # The calibrated floor fraction reaches 1 at about 8.63 mW.
        text = '[cavity] preset="45ghz"\n[jsi] pump_mw=10\n'
        with pytest.raises(ConfigError, match="accidental floor at 1.327"):
            build_config(parse_config_text(text))
        ok = build_config(parse_config_text('[cavity] preset="45ghz"\n[jsi] pump_mw=8.5\n'))
        assert ok.jsi.pump_power_mw == 8.5

    def test_window_shorter_than_revival_period_rejected(self):
        # 45ghz revival period: 11.03 ps.
        text = '[cavity] preset="45ghz"\n[hom] window_ps=5.0\n'
        with pytest.raises(ConfigError, match="shorter than one revival period"):
            build_config(parse_config_text(text))
        ok = build_config(parse_config_text('[cavity] preset="45ghz"\n[hom] window_ps=11.1\n'))
        assert ok.hom.window_ps == 11.1

    def test_hash_stable_and_scientific(self, tmp_path):
        a = preset_config("45ghz", output_dir=str(tmp_path / "a"))
        b = preset_config("45ghz", output_dir=str(tmp_path / "b"))
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != preset_config("15ghz").config_hash()


class TestRoundTrips:
    def test_json_round_trip(self, tmp_path):
        payload = {"k": 18.3039, "values": [1, 2.5, -3], "name": "x", "flag": True}
        path = tmp_path / "obj.json"
        export_json(path, payload)
        assert load_json(path) == payload

    def test_json_reexport_identical(self, tmp_path):
        payload = {"b": 2, "a": [1.5, 2.25]}
        p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
        export_json(p1, payload)
        export_json(p2, json.loads(p1.read_text()))
        assert p1.read_bytes() == p2.read_bytes()

    def test_jsi_csv_round_trip(self, tmp_path, comb_45):
        from bfcsim import scan_correlation_matrix
        from bfcsim.jsi import FilterSpec

        scan = scan_correlation_matrix(
            comb_45, FilterSpec(0.0), FilterSpec(0.0), 2, pump_power_mw=2.0
        )
        path = tmp_path / "m.csv"
        jsi_to_csv(scan, path)
        back = jsi_from_csv(path)
        assert back.n_max == scan.n_max
        assert np.max(np.abs(back.values - scan.values)) < 1e-15

    def test_jsi_csv_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(ValueError):
            jsi_from_csv(path)

    def test_trace_csv_layout(self, tmp_path, comb_45):
        from bfcsim import simulate_hom_trace

        trace = simulate_hom_trace(comb_45, np.array([-1.0, 0.0, 1.0]))
        path = tmp_path / "t.csv"
        trace_to_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "delay_ps,coincidence"
        assert len(lines) == 4

    def test_spectrum_csv_uses_bin_labels(self, tmp_path, cavity_45):
        spec = time_bin_eigenvalues(cavity_45, 2)
        path = tmp_path / "s.csv"
        spectrum_to_csv(spec, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n,eigenvalue"
        assert lines[1].startswith("0,")  # central bin carries the top eigenvalue

    def test_visibilities_csv(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("n,visibility\n1,0.99\n2,0.97\n")
        assert visibilities_from_csv(path) == [(1, 0.99), (2, 0.97)]
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            visibilities_from_csv(bad)

    def test_jsi_type_guard_round_trip(self, tmp_path):
        values = np.zeros((3, 3))
        values[0, 2] = 0.5
        values[2, 0] = 0.5
        jsi = Jsi(n_max=1, values=values, normalized=True)
        path = tmp_path / "j.csv"
        jsi_to_csv(jsi, path)
        assert np.allclose(jsi_from_csv(path).values, values)
