"""Config parsing/validation and CSV/JSON round trips."""

import csv
import dataclasses
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bfcsim import ConfigError, load_config, preset_config
from bfcsim.comb import ENVELOPE_SHAPES
from bfcsim.config import (
    MAX_HOM_DELAYS,
    ChshConfig,
    HomConfig,
    JsiConfig,
    build_config,
    parse_config_text,
)
from bfcsim.io import (
    export_csv,
    export_json,
    jsi_from_csv,
    visibilities_from_csv,
    write_artifact,
)
from bfcsim.jsi import FILTER_SHAPES, Jsi
from bfcsim.schmidt import time_bin_eigenvalues

HASH_45GHZ = "d9d805a31ddd2f8378d787e7fcd0961ad98798e1bf557970866df38510a37b03"


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

    def test_non_number_names_its_key(self):
        for line, message in (
            ('[hom] window_ps="abc"', "[hom] window_ps must be a number, got 'abc'"),
            ("[source] bpm_ghz=abc", "[source] bpm_ghz must be a number, got 'abc'"),
        ):
            with pytest.raises(ConfigError) as exc:
                build_config(parse_config_text(f'[cavity] preset="45ghz"\n{line}\n'))
            assert str(exc.value) == message

    def test_delay_grid_budget(self):
        # 2 * 500 / 0.001 + 1 = 1,000,001 delays, one past the budget.
        assert MAX_HOM_DELAYS == 1_000_000
        with pytest.raises(ConfigError, match="1e\\+06 delays; at most 1000000"):
            HomConfig(window_ps=500.0, step_ps=0.001)
        assert HomConfig(window_ps=499.0, step_ps=0.001).step_ps == 0.001

    def test_hash_stable_and_scientific(self, tmp_path):
        a = preset_config("45ghz", output_dir=str(tmp_path / "a"))
        b = preset_config("45ghz", output_dir=str(tmp_path / "b"))
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != preset_config("15ghz").config_hash()

    def test_hash_digests_pinned(self):
        assert preset_config("45ghz").config_hash() == HASH_45GHZ
        assert preset_config("15ghz").config_hash() == (
            "f4508154523d75a2e29f3cfad7e7a0a794ec940efea4bf4f183b07ccabf57a83"
        )
        assert preset_config("5ghz").config_hash() == (
            "a2b59edeb9f702a27dc38e2916f4955e4804a94b921a0b8b48c89be26b196784"
        )
        sample = Path(__file__).resolve().parents[1] / "docs" / "sample.cfg"
        assert load_config(str(sample)).config_hash() == HASH_45GHZ


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


# Per section: file key -> (dataclass field, unit scale, valid values).
# Every value is valid on the 45ghz preset whatever the other keys hold.
SECTION_KEYS = {
    "source": {
        "bpm_ghz": ("phase_matching_fwhm_hz", 1e9, _floats(1.0, 1000.0)),
        "envelope": ("envelope_shape", None, st.sampled_from(ENVELOPE_SHAPES)),
        "pump_mw": ("pump_power_mw", 1.0, _floats(0.0, 8.5)),
        "wavelength_nm": ("degenerate_wavelength_nm", 1.0, _floats(400.0, 2000.0)),
    },
    "hom": {
        "window_ps": ("window_ps", 1.0, _floats(12.0, 400.0)),
        "step_ps": ("step_ps", 1.0, _floats(0.01, 5.0)),
        "accidentals": ("accidental_fraction", 1.0, _floats(0.0, 0.99)),
    },
    "jsi": {
        "filter_fwhm_pm": ("filter_fwhm_pm", 1.0, _floats(0.0, 1000.0)),
        "filter_shape": ("filter_shape", None, st.sampled_from(FILTER_SHAPES)),
        "max_bin": ("max_bin", None, st.integers(0, 100)),
        "pump_mw": ("pump_power_mw", 1.0, _floats(0.0, 8.5)),
    },
    "chsh": {
        "fringe_visibility": ("fringe_visibility", 1.0, _floats(0.0, 1.0)),
        "chsh_visibility": ("chsh_visibility", 1.0, _floats(0.0, 1.0)),
        "integration": ("integration", 1.0, _floats(1e-3, 1e7)),
        "seed": ("seed", None, st.integers(0, 2**63)),
    },
}


@st.composite
def _section_subsets(draw):
    section = draw(st.sampled_from(sorted(SECTION_KEYS)))
    keys = SECTION_KEYS[section]
    values = draw(st.fixed_dictionaries({}, optional={k: v[2] for k, v in keys.items()}))
    return section, values


@given(_section_subsets())
def test_build_config_sets_exactly_the_given_keys(drawn):
    section, values = drawn
    pairs = ", ".join(
        f'{k}="{v}"' if isinstance(v, str) else f"{k}={v!r}" for k, v in values.items()
    )
    cfg = build_config(parse_config_text(f'[cavity] preset="45ghz"\n[{section}] {pairs}\n'))
    obj = getattr(cfg, section)
    default = type(obj)()
    expected = {}
    for key, value in values.items():
        name, scale, _ = SECTION_KEYS[section][key]
        expected[name] = value if scale is None else float(value) * scale
    for f in dataclasses.fields(obj):
        assert getattr(obj, f.name) == expected.get(f.name, getattr(default, f.name)), f.name


class TestRoundTrips:
    def test_json_round_trip(self, tmp_path):
        payload = {"k": 18.3039, "values": [1, 2.5, -3], "name": "x", "flag": True}
        path = tmp_path / "obj.json"
        export_json(path, payload)
        assert json.loads(path.read_text()) == payload

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
        write_artifact(path, scan)
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
        write_artifact(path, trace)
        lines = path.read_text().splitlines()
        assert lines[0] == "delay_ps,coincidence"
        assert len(lines) == 4

    def test_spectrum_csv_uses_bin_labels(self, tmp_path, cavity_45):
        spec = time_bin_eigenvalues(cavity_45, 2)
        path = tmp_path / "s.csv"
        write_artifact(path, spec)
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
        write_artifact(path, jsi)
        assert np.allclose(jsi_from_csv(path).values, values)


def _old_rule_csv(header, rows) -> str:
    """CSV text with every cell through the per-cell rule the writer used to apply."""

    def cell(value):
        if isinstance(value, (float, np.floating)):
            return repr(float(value))
        if isinstance(value, (int, np.integer)):
            return int(value)
        return value

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([cell(c) for c in row])
    return buf.getvalue()


class TestCsvBytes:
    """`write_artifact` CSVs against the old layout, built from numpy scalars."""

    def _check(self, tmp_path, value, header, rows):
        path = tmp_path / "a.csv"
        write_artifact(path, value)
        assert path.read_bytes() == _old_rule_csv(header, rows).encode("utf-8")

    def test_hom_trace_with_signed_zero_subnormal_and_huge(self, tmp_path, comb_45):
        from bfcsim import HomTrace

        delays = np.array([-1e300, -0.0, 5e-324, 1.0 / 3.0, 1e300])
        coincidence = np.array([0.1, -0.0, 5e-324, 1.0 / 3.0, 1.0])
        trace = HomTrace(delays_ps=delays, coincidence=coincidence, comb=comb_45)
        self._check(tmp_path, trace, ["delay_ps", "coincidence"], zip(delays, coincidence))
        assert "-0.0,-0.0\n5e-324,5e-324\n" in (tmp_path / "a.csv").read_text()

    def test_preset_traces(self, tmp_path, trace_45, zoom_trace_45):
        for trace in (trace_45, zoom_trace_45):
            rows = zip(trace.delays_ps, trace.coincidence)
            self._check(tmp_path, trace, ["delay_ps", "coincidence"], rows)

    def test_jsi(self, tmp_path, comb_45):
        from bfcsim import scan_correlation_matrix
        from bfcsim.jsi import FilterSpec

        scan = scan_correlation_matrix(comb_45, FilterSpec(5e9), FilterSpec(5e9), 3, 2.0)
        bins = [int(b) for b in scan.bins]
        rows = [[n] + list(row) for n, row in zip(bins, scan.values)]
        self._check(tmp_path, scan, ["bin"] + [str(b) for b in bins], rows)

    def test_schmidt_spectrum_with_and_without_bin_indices(self, tmp_path, cavity_45):
        from bfcsim import schmidt_decompose

        labelled = time_bin_eigenvalues(cavity_45, 5)
        ranked = schmidt_decompose(np.random.default_rng(3).random((6, 6)))
        assert labelled.bin_indices is not None and ranked.bin_indices is None
        rows = zip(labelled.bin_indices, labelled.eigenvalues)
        self._check(tmp_path, labelled, ["n", "eigenvalue"], rows)
        rows = zip(np.arange(ranked.eigenvalues.size), ranked.eigenvalues)
        self._check(tmp_path, ranked, ["n", "eigenvalue"], rows)

    def test_fringe_scan_with_int64_counts(self, tmp_path):
        from bfcsim.chsh import simulate_fringe_scan

        scan = simulate_fringe_scan(45.0, np.arange(0.0, 360.0, 10.0), 0.95, 2000.0, seed=7)
        assert scan.counts.dtype == np.int64
        rows = zip(scan.scan_angles_deg, scan.counts)
        self._check(tmp_path, scan, ["phi2_deg", "counts"], rows)

    def test_revival_records(self, tmp_path, trace_45):
        from bfcsim import locate_revivals
        from bfcsim.hom import RevivalRecord

        records = locate_revivals(trace_45) + [RevivalRecord(-3, -0.0, 5e-324)]
        rows = ((r.n, r.center_ps, r.visibility) for r in records)
        self._check(tmp_path, records, ["n", "center_ps", "visibility"], rows)


_CELLS = st.floats(0.0, 1e300, allow_nan=False, allow_infinity=False)


@st.composite
def _jsi_values(draw):
    size = 2 * draw(st.integers(0, 3)) + 1
    cells = draw(st.lists(_CELLS, min_size=size * size, max_size=size * size))
    values = np.array(cells).reshape(size, size)
    values[size // 2, size // 2] += draw(st.floats(5e-324, 1.0))  # some weight
    return values


@given(_jsi_values())
def test_jsi_csv_reads_back_exactly(tmp_path_factory, values):
    path = tmp_path_factory.getbasetemp() / "round_trip_jsi.csv"
    write_artifact(path, Jsi(n_max=values.shape[0] // 2, values=values))
    back = jsi_from_csv(path)
    # The reader renormalizes; the cells themselves come back bit for bit.
    assert back.n_max == values.shape[0] // 2
    assert np.array_equal(back.values, values / values.sum())


@given(st.lists(st.tuples(st.integers(-(2**63), 2**63 - 1), st.floats(allow_nan=False))))
def test_visibility_points_read_back_exactly(tmp_path_factory, points):
    path = tmp_path_factory.getbasetemp() / "round_trip_visibilities.csv"
    export_csv(path, ["n", "visibility"], points)
    back = visibilities_from_csv(path)
    assert back == points
    assert [math.copysign(1.0, v) for _, v in back] == [math.copysign(1.0, v) for _, v in points]
