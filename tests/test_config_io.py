"""Config parsing/validation and CSV/JSON round trips."""

import csv
import dataclasses
import io
import json
import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings, strategies as st

from bfcsim import ConfigError, load_config, preset_config
from bfcsim.comb import ENVELOPE_SHAPES
from bfcsim.config import (
    _FIELDS,
    MAX_HOM_DELAYS,
    MAX_HOM_WORK,
    ChshConfig,
    HomConfig,
    JsiConfig,
    build_config,
    parse_config_text,
)
from bfcsim.hom import TRUNCATION_OVERSHOOT_TOL, HomTrace
from bfcsim.io import (
    export_csv,
    export_json,
    jsi_from_csv,
    visibilities_from_csv,
    write_artifact,
)
from bfcsim.jsi import FILTER_SHAPES, Jsi
from bfcsim.schmidt import time_bin_eigenvalues
from conftest import revival_rows

HASH_45GHZ = "a0a96271669117e926544023d3b1c606d46dd6c1139a4bf67cc61604c4f72cea"


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
                "[source] bpm_ghz=1e300",  # finite, but not in Hz
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
        key, value = re.search(r"(\w+)=(inf|nan|1e300|\d+\.\d+)", text).groups()
        message = "must be finite" if value in ("inf", "nan", "1e300") else "must be an integer"
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
        # The floor's quadratic term overflows past ~1e154 mW.  The JSI pump
        # defaults to the source's, and the error names the key it came from.
        for line in ("[jsi] pump_mw=1e300", "[source] pump_mw=1e300"):
            message = re.escape(line.replace("=1e300", "=1e+300")) + " puts the accidental floor"
            with pytest.raises(ConfigError, match=message + " at inf"):
                build_config(parse_config_text(f'[cavity] preset="45ghz"\n{line}\n'))

    def test_comb_half_count_past_the_float_range_rejected(self):
        # 1e308 Hz is finite; three times it over the FSR is not.
        text = '[cavity] preset="45ghz"\n[source] bpm_ghz=1e299\n'
        with pytest.raises(ConfigError, match=r"bpm_ghz=1e\+299 overflows the comb half-count"):
            build_config(parse_config_text(text))

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

    def test_value_takes_its_keys_type(self):
        text = (
            "[cavity] preset=45ghz, label=007\n"
            '[comb] n_max="6"\n'
            "[output] dir=out/run1\n"
        )
        cfg = build_config(parse_config_text(text))
        assert cfg.cavity.label == "007"
        assert cfg.n_max == 6 and isinstance(cfg.n_max, int)
        assert cfg.output_dir == "out/run1"

    def test_readme_key_table_states_every_rule(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = {}
        for line in readme.splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            m = re.fullmatch(r"`\[(\w+)\]`", cells[0])
            if m and len(cells) == 5:
                rows[m.group(1), cells[1].strip("`")] = cells[4]
        for section, keys in _FIELDS.items():
            for key, (_, _, rule) in keys.items():
                assert (section, key) in rows, (section, key)
                if rule is not None:
                    text = rule if isinstance(rule, str) else f"one of {rule}"
                    assert f"`{text}`" in rows[section, key], (section, key)

    def test_delay_grid_budget(self):
        # 2 * 500 / 0.001 + 1 = 1,000,001 delays, one past the budget.
        assert MAX_HOM_DELAYS == 1_000_000

        def build(window):
            text = f'[cavity] preset="45ghz"\n[hom] window_ps={window}, step_ps=0.001\n'
            return build_config(parse_config_text(text))

        with pytest.raises(ConfigError, match="1e\\+06 delays; at most 1000000"):
            build(500)
        assert build(499).hom.step_ps == 0.001

    @pytest.mark.parametrize(
        ("lines", "message"),
        [
            # 1,001 comb terms at 998,001 delays: 1.0e9, over 6x the budget (2.7 s).
            (
                "[comb] n_max=1000\n[hom] window_ps=499, step_ps=0.001",
                "[comb] n_max=1000 with 9.98e+05 HOM delays",
            ),
            # Finite, but its default n_max of ~6.6e288 bins fails late in stage 'comb'.
            ("[source] bpm_ghz=1e290", "[source] bpm_ghz=1e+290 (n_max 6.62e+288) with 3401"),
            # Three wide delays fit 4e7 bins (1.2e8 terms), but the zoom scan's
            # 1,201 delays ask for 4.8e10 over the same comb.
            (
                "[comb] n_max=40000000\n[hom] window_ps=11.1, step_ps=11",
                "[comb] n_max=40000000 with 3.018 HOM delays and 1201 zoom delays asks for "
                "more than 150000000 delay-bin terms; this grid allows n_max <= 124581",
            ),
        ],
        ids=["n_max", "bpm_ghz", "zoom"],
    )
    def test_hom_work_budget(self, lines, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            build_config(parse_config_text(f'[cavity] preset="45ghz"\n{lines}\n'))

    @pytest.mark.parametrize("preset", ["45ghz", "15ghz", "5ghz"])
    def test_every_preset_fits_the_hom_work_budget_at_the_delay_cap(self, preset):
        # 2 * 500 / 0.001 + 1 delays, just under MAX_HOM_DELAYS, plus the zoom
        # scan's 1,201; 5ghz: 147 terms, 1.47e8.
        text = f'[cavity] preset="{preset}"\n[hom] window_ps=499.9995, step_ps=0.001\n'
        cfg = build_config(parse_config_text(text))
        n_delays = 2 * cfg.hom.window_ps / cfg.hom.step_ps + 1
        assert MAX_HOM_DELAYS - 1 <= n_delays <= MAX_HOM_DELAYS
        assert (n_delays + 1201) * (cfg.resolved_n_max() + 1) <= MAX_HOM_WORK

    def test_hash_stable_and_scientific(self, tmp_path):
        a = preset_config("45ghz", output_dir=str(tmp_path / "a"))
        b = preset_config("45ghz", output_dir=str(tmp_path / "b"))
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != preset_config("15ghz").config_hash()

    def test_hash_digests_pinned(self):
        assert preset_config("45ghz").config_hash() == HASH_45GHZ
        assert preset_config("15ghz").config_hash() == (
            "ee7105f31ab4f684fcfee22f17c2ff32328912d76e11efb68e0cca7294f74f35"
        )
        assert preset_config("5ghz").config_hash() == (
            "795914019124290c02f3e9e824f1145680104ad52267ef6bcc15e155c931edc5"
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

        scan = scan_correlation_matrix(comb_45, FilterSpec(0.0), 2, pump_power_mw=2.0)
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

    @pytest.mark.parametrize(
        "row",
        ["0.0,1,0", "0,1_0,0", "0,1,0,0,0", "0,1", '"0",,1'],
        ids=["float-label", "underscore-cell", "ragged", "short", "empty-cell"],
    )
    def test_jsi_csv_rejection_names_the_path(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"bin,-1,0,1\n-1,0,0,1\n{row}\n1,1,0,0\n")
        with pytest.raises(ValueError, match="bad.csv"):
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
        for row, error in [
            ("1.0,0.5", "invalid literal for int"),
            ("1,abc", "could not convert string to float"),
            ("1e400,0.2", "invalid literal for int"),
        ]:
            path.write_text(f"n,visibility\n{row}\n2,0.97\n")
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {error}"):
                visibilities_from_csv(path)
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            visibilities_from_csv(bad)
        bad.write_text("n,visibility\n1,0.99\n1,0.5\n")
        with pytest.raises(ValueError, match="bad.csv: n=1 is on more than one row"):
            visibilities_from_csv(bad)

    def test_jsi_type_guard_round_trip(self, tmp_path):
        values = np.zeros((3, 3))
        values[0, 2] = 0.5
        values[2, 0] = 0.5
        jsi = Jsi(n_max=1, values=values)
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

        scan = scan_correlation_matrix(comb_45, FilterSpec(5e9), 3, 2.0)
        bins = [int(b) for b in scan.bins]
        rows = [[n] + list(row) for n, row in zip(bins, scan.values)]
        self._check(tmp_path, scan, ["bin"] + [str(b) for b in bins], rows)

    def test_schmidt_spectrum_with_and_without_bin_indices(self, tmp_path, cavity_45):
        from bfcsim import schmidt_decompose

        labelled = time_bin_eigenvalues(cavity_45, 5)
        ranked = schmidt_decompose(np.random.default_rng(3).random((6, 6)))
        assert ranked.n.tolist() == list(range(6))
        rows = zip(labelled.n, labelled.eigenvalue)
        self._check(tmp_path, labelled, ["n", "eigenvalue"], rows)
        rows = zip(np.arange(ranked.eigenvalue.size), ranked.eigenvalue)
        self._check(tmp_path, ranked, ["n", "eigenvalue"], rows)

    def test_fringe_scan_with_int64_counts(self, tmp_path):
        from bfcsim.chsh import simulate_fringe_scan

        scan = simulate_fringe_scan(45.0, np.arange(0.0, 360.0, 10.0), 0.95, 2000.0, seed=7)
        assert scan.counts.dtype == np.int64
        rows = zip(scan.phi2_deg, scan.counts)
        self._check(tmp_path, scan, ["phi2_deg", "counts"], rows)

    def test_revival_records(self, tmp_path, trace_45):
        from bfcsim import locate_revivals

        records = revival_rows([*locate_revivals(trace_45).tolist(), (-3, -0.0, 5e-324)])
        rows = ((r.n, r.center_ps, r.visibility) for r in records)
        self._check(tmp_path, records, ["n", "center_ps", "visibility"], rows)

    def test_any_record_array_by_its_field_names(self, tmp_path):
        ids = np.array([-(2**63), 0, 7, 2**63 - 1], np.int64)
        weights = np.array([-0.0, 5e-324, 1.0 / 3.0, -1e300])
        rows = np.rec.fromarrays([ids, weights], names="id,weight")
        self._check(tmp_path, rows, ["id", "weight"], zip(ids, weights))
        lines = (tmp_path / "a.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "id,weight"
        read = [line.split(",") for line in lines[1:]]
        assert [int(i) for i, _ in read] == ids.tolist()
        bits = np.array([float(w) for _, w in read]).view(np.uint64)
        assert bits.tolist() == weights.view(np.uint64).tolist()


_CELLS = st.floats(0.0, 1e300, allow_nan=False, allow_infinity=False)


@st.composite
def _jsi_values(draw):
    size = 2 * draw(st.integers(0, 3)) + 1
    cells = draw(st.lists(_CELLS, min_size=size * size, max_size=size * size))
    values = np.array(cells).reshape(size, size)
    values[size // 2, size // 2] += draw(st.floats(5e-324, 1.0))  # some weight
    return values


# Cell texts a matrix from elsewhere may hold: integers, signed zeros, exponent
# spellings and padding; texts that only np.loadtxt reads ('"0.5"', "nan",
# "+1", ".5", "1.", "1e400"); JSON that is no number ("true", "null", "[1]",
# '"1_0"'); and negative cells, which `Jsi` rejects however small ("-1e-17").
_CELL_TEXTS = (
    st.sampled_from(
        ["0", "-0", "0.0", "-0.0", "7", "1E5", "1e+05", "2.5e-007", "1.5E-07", " 0.5 ", "\t3",
         '"0.5"', "nan", "+1", ".5", "1.", "1e400", "18446744073709551616",
         "true", "null", "[1]", '"1_0"', "-2", "-2.5e-3", "-1e-17", " -7 "]
    )
    | st.floats(0.0, 1e300).map(repr)
    | st.integers(0, 10**30).map(str)
)


@st.composite
def _matrix_texts(draw):
    n_max = draw(st.integers(0, 2))
    labels = range(-n_max, n_max + 1)
    rows = []
    for label in labels:
        label_text = draw(st.sampled_from([str(label), f" {label} ", f"{label}.0"]))
        width = len(labels) + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))  # sometimes ragged
        cells = draw(st.lists(_CELL_TEXTS, min_size=width, max_size=width))
        rows.append(",".join([label_text, *cells]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(["bin," + ",".join(map(str, labels)), *rows]) + end


def _read_matrix(path):
    """The cells `jsi_from_csv` reads as 64-bit patterns, or its ValueError's text."""
    try:
        return jsi_from_csv(path).values.view(np.uint64).tolist()
    except ValueError as exc:
        return str(exc)


@given(_matrix_texts())
@example("bin,-1,0,1\n-1,1,-0,1\n0,1,1,1\n1,1,1,1\n")
@example("bin,-1,0,1\r\n-1, 1 ,2E5,3e-005\r\n0,0.5,4,1e-05\r\n1,7,8,9\r\n")
@example('bin,0\n0,"1"\n')
@example('bin,0\n0,"1_0"\n')
@example("bin,0\n0,true\n")
@example("bin,0\n0,[1]\n")
@example("bin,-1,0,1\n-1,1,1,1\n0.0,1,1,1\n1,1,1,1\n")
@example("bin,0\n \n0,1\n")
@example("bin,-1,0,1\n-1,1,0,0\n0,0,-2,0\n1,0,0,5\n")
def test_matrix_reader_matches_loadtxt(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "matrix_reader.csv"
    path.write_text(text, encoding="utf-8", newline="")
    read = _read_matrix(path)
    # The reference: the same reader with every text sent to np.loadtxt.
    with mock.patch("bfcsim.io._json_matrix", return_value=None):
        assert read == _read_matrix(path)
    if isinstance(read, str):
        assert str(path) in read


@pytest.mark.parametrize("shape", FILTER_SHAPES)
def test_scan_matrix_is_read_without_loadtxt(tmp_path, monkeypatch, comb_5, shape):
    from bfcsim import scan_correlation_matrix
    from bfcsim.jsi import FilterSpec

    scan = scan_correlation_matrix(comb_5, FilterSpec(300e9, shape), 100, pump_power_mw=0.5)
    path = tmp_path / "m.csv"
    write_artifact(path, scan)

    def no_loadtxt(*args, **kwargs):
        raise AssertionError("np.loadtxt called on a matrix write_artifact wrote")

    monkeypatch.setattr(np, "loadtxt", no_loadtxt)
    back = jsi_from_csv(path)
    assert np.array_equal(back.values, scan.values)


@given(_jsi_values())
def test_jsi_csv_reads_back_exactly(tmp_path_factory, values):
    path = tmp_path_factory.getbasetemp() / "round_trip_jsi.csv"
    write_artifact(path, Jsi(n_max=values.shape[0] // 2, values=values))
    back = jsi_from_csv(path)
    # The cells come back bit for bit, as written.
    assert back.n_max == values.shape[0] // 2
    assert np.array_equal(back.values, values)


# Each n once: the format rejects a repeated n (test_visibilities_csv).
@given(
    st.lists(
        st.tuples(st.integers(-(2**63), 2**63 - 1), st.floats(allow_nan=False)),
        unique_by=lambda point: point[0],
    )
)
def test_visibility_points_read_back_exactly(tmp_path_factory, points):
    path = tmp_path_factory.getbasetemp() / "round_trip_visibilities.csv"
    export_csv(path, ["n", "visibility"], [[n for n, _ in points], [v for _, v in points]])
    back = visibilities_from_csv(path)
    assert back == points
    assert [math.copysign(1.0, v) for _, v in back] == [math.copysign(1.0, v) for _, v in points]


def _csv_writer_bytes(header, columns) -> bytes:
    """The reference: `csv.writer` over rows of Python ints and floats."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*(c.tolist() for c in columns)))
    return buf.getvalue().encode("utf-8")


_INT64 = st.integers(-(2**63), 2**63 - 1)
_SPECIAL_FLOATS = [
    0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
    5e-324, -5e-324, 2.225073858507201e-308,  # subnormals
    2.2250738585072014e-308, 1.7976931348623157e308,  # smallest normal, largest
]


# Any float64 bit pattern: nan payloads, subnormals and every exponent alike.
_RAW_FLOATS = st.integers(0, 2**64 - 1).map(lambda bits: np.uint64(bits).view(np.float64).item())
# The edges of the range where orjson's text is repr's: 1e-4 and 1e16, one ulp
# either side of each, and all of them negated.
_EDGES = np.array(
    [s * np.nextafter(e, to) for e in (1e-4, 1e16) for to in (0.0, e, math.inf) for s in (1, -1)]
)


# Floats whose orjson text is repr's: 0, below 1e-9 and [1e-4, 1e16) in
# magnitude.  A table of only these is written by one orjson.dumps of its
# cells; a table with an integer column goes through the writer that spells
# each distinct float once, as any other table does.  Any float, raw or not,
# almost never draws an all-float table of these.
_IN_BAND_FLOATS = (
    st.floats(-1e-9, 1e-9, exclude_min=True, exclude_max=True)
    | st.floats(1e-4, 1e16, exclude_max=True)
    | st.floats(-1e16, -1e-4, exclude_min=True)
    | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 0.1, 1.0 / 3.0, 1e15 + 0.5])
)


@st.composite
def _csv_columns(draw):
    n_rows = draw(st.integers(0, 12))
    in_band = draw(st.booleans())
    floats = _IN_BAND_FLOATS if in_band else st.floats() | st.sampled_from(_SPECIAL_FLOATS)
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            columns.append(np.array(draw(st.lists(_INT64, min_size=n_rows, max_size=n_rows))))
            continue
        # A small pool makes repeated values, within a column and across columns, common.
        pool = draw(st.lists(floats, min_size=1))
        cells = st.sampled_from(pool) | (floats if in_band else st.floats() | _RAW_FLOATS)
        columns.append(np.array(draw(st.lists(cells, min_size=n_rows, max_size=n_rows)), float))
    return columns


# The edges of every band where orjson's text is respelled into repr's (1e-9,
# 1e-5, 1e-4, 1e16) and of each exponent width (1e-100, 1e-10, 1e100), one ulp
# either side of each, and all of them negated.
_BAND_EDGES = np.array(
    [
        s * np.nextafter(e, to)
        for e in (1e-100, 1e-10, 1e-9, 1e-5, 1e-4, 1e16, 1e100)
        for to in (0.0, e, math.inf)
        for s in (1, -1)
    ]
)


def _one_edge_tables(test):
    """Examples of a table with an integer column and one float at an edge of orjson's bands.

    The integer column sends the table through the writer that spells each
    distinct float once.  The edges are 1e-9, 1e-4 and 1e16, one ulp either
    side of each, and all of them negated; each table holds one of them.
    """
    for edge in (1e-9, 1e-4, 1e16):
        for cell in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, math.inf)):
            for sign in (1, -1):
                in_band = np.array([0.5, -0.0, 1e-300, sign * cell, 12345.678])
                test = example([np.arange(-2, 3), in_band])(test)
    return test


@given(_csv_columns())
@_one_edge_tables
@example([np.array([True, False]), np.array([0.5, 1.0])])  # `str` spells True, orjson true
@example([np.array([2**70, -1]), np.array([0.5, 1.0])])  # object ints past 64 bits
@example([np.array([0.1, 1e-5, math.nan], np.float32)])  # written as float64
@example([np.array([0.1, 1.5, 3e-4, -0.0], np.float32), np.array([1.0, 2.0, 3.0, 1e-300])])
@example([np.array([0.5, -0.0, 1e-300, 12345.678, 1e15 + 0.5])])  # one column
@example([np.array([0.25]), np.array([-1e-12]), np.array([3e15])])  # one row
@example([np.linspace(0.5, 4.0, 8)[::2], np.arange(8.0).reshape(4, 2)[:, 1] / 3.0])  # strided
@example([np.array([0.0, -0.0, 0.0, -0.0]), np.array([-0.0, math.nan, -math.nan, 0.0])])
@example([np.array([2**63 - 1, -(2**63), 0]), np.array([5e-324, -5e-324, math.inf])])
@example([_EDGES])
@example([_EDGES[::-1], np.array([0.0] * 6 + [-0.0] * 6)])
@example([_BAND_EDGES])
@example([np.array([1e-5, 5e-5, 1.23e-5, 9.99e-6, 1.5e-7, 1e16, 1.7976931348623157e308])])
@example([np.arange(0.0, 360.0, 10.0), np.arange(36)])  # a fringe scan: angles and counts
# The negative fifth-place band, with one and with 17 significant digits.
@example([np.array([-1e-05, -5e-05, -1.2345678901234567e-05, -9.999999999999999e-05])])
def test_export_csv_bytes_match_the_csv_writer(tmp_path_factory, columns):
    path = tmp_path_factory.getbasetemp() / "oracle.csv"
    header = [f"c{i}" for i in range(len(columns))]
    export_csv(path, header, columns)
    assert path.read_bytes() == _csv_writer_bytes(header, columns)


def test_export_json_of_a_circular_document_raises_as_json_does(tmp_path):
    doc = {"a": []}
    doc["a"].append(doc)
    with pytest.raises(ValueError, match="Circular reference"):
        export_json(tmp_path / "circular.json", doc)


def test_a_failed_write_raises_runtime_error_naming_the_file(tmp_path):
    missing = tmp_path / "no_such_dir"
    with pytest.raises(RuntimeError, match="failed writing JSON .*report.json"):
        export_json(missing / "report.json", {"k": 1.5})
    with pytest.raises(RuntimeError, match="failed writing CSV .*trace.csv"):
        export_csv(missing / "trace.csv", ["x"], [[1.5]])


@pytest.mark.parametrize("preset", ["45ghz", "15ghz", "5ghz"])
def test_preset_traces_are_written_by_one_orjson_call(tmp_path, monkeypatch, preset):
    from bfcsim.report import comb_stage, hom_stage, run_report

    config = preset_config(preset, str(tmp_path / "run"))
    report = run_report(config)
    trace, zoom = hom_stage(config, comb_stage(config))
    expected = {
        "hom_trace.csv": _csv_writer_bytes(
            ["delay_ps", "coincidence"], [trace.delays_ps, trace.coincidence]
        ),
        "hom_trace_zoom.csv": _csv_writer_bytes(
            ["delay_ps", "coincidence"], [zoom.delays_ps, zoom.coincidence]
        ),
        "report.json": (json.dumps(report, sort_keys=True, indent=2) + "\n").encode(),
    }

    def refuse(*args, **kwargs):
        raise AssertionError("the slow path wrote a preset's trace")

    calls, dumps = [], orjson.dumps

    def recording_dumps(obj, *args, **kwargs):
        calls.append((obj, kwargs))
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(np, "unique", refuse)
    monkeypatch.setattr(orjson, "dumps", recording_dumps)
    for name, value in (("hom_trace.csv", trace), ("hom_trace_zoom.csv", zoom)):
        calls.clear()
        write_artifact(tmp_path / name, value)
        # One call, on the float array laid out row by row.
        [(obj, kwargs)] = calls
        assert isinstance(obj, np.ndarray) and obj.shape == (2 * value.delays_ps.size,)
        assert kwargs == {"option": orjson.OPT_SERIALIZE_NUMPY}
    export_json(tmp_path / "report.json", report)
    monkeypatch.undo()
    for name, text in expected.items():
        assert (tmp_path / name).read_bytes() == text == (tmp_path / "run" / name).read_bytes()


def test_export_csv_rejects_unequal_columns(tmp_path):
    path = tmp_path / "unequal.csv"
    with pytest.raises(ValueError, match="equal length"):
        export_csv(path, ["a", "b"], [np.arange(3), np.zeros(2)])
    assert not path.exists()


# The signed zeros and subnormals a writer could lose, the edges of repr's
# exponent form, and numbers that do not end in binary.
_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-4, 1e16, 0.1, 1.0 / 3.0])
_ROW_FLOATS = st.floats(allow_nan=False) | _EDGE_FLOATS


@st.composite
def _hom_traces(draw, comb):
    delays = draw(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=12, unique=True))
    cells = st.floats(-1e-9, 1.0 + TRUNCATION_OVERSHOOT_TOL) | st.sampled_from([-0.0, 5e-324])
    coincidence = draw(st.lists(cells, min_size=len(delays), max_size=len(delays)))
    trace = HomTrace(delays_ps=sorted(delays), coincidence=coincidence, comb=comb)
    columns = [("delay_ps", float, trace.delays_ps), ("coincidence", float, trace.coincidence)]
    return trace, columns


@st.composite
def _spectra(draw, labelled):
    weights = np.array(draw(st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=12)))
    tail = draw(st.lists(st.sampled_from([0.0, -0.0, 5e-324, -1e-15]), max_size=3))
    lam = np.array(sorted(weights / weights.sum(), reverse=True) + sorted(tail, reverse=True))
    labels = np.array(draw(st.lists(_INT64, min_size=lam.size, max_size=lam.size)))
    n = labels if labelled else np.arange(lam.size)
    spectrum = np.rec.fromarrays([n, lam], dtype=[("n", np.int64), ("eigenvalue", float)])
    return spectrum, [("n", int, n), ("eigenvalue", float, lam)]


@st.composite
def _fringe_scans(draw):
    size = draw(st.integers(0, 12))
    angles = np.array(draw(st.lists(_ROW_FLOATS, min_size=size, max_size=size)), float)
    counts = draw(st.lists(st.integers(0, 2**63 - 1), min_size=size, max_size=size))
    scan = np.rec.fromarrays([angles, np.array(counts, np.int64)], names="phi2_deg,counts")
    return scan, [("phi2_deg", float, angles), ("counts", int, scan.counts)]


@st.composite
def _revival_records(draw):
    rows = draw(st.lists(st.tuples(_INT64, _ROW_FLOATS, _ROW_FLOATS), max_size=12))
    n, centers, visibilities = zip(*rows) if rows else ((), (), ())
    columns = [("n", int, n), ("center_ps", float, centers), ("visibility", float, visibilities)]
    return revival_rows(rows), columns


def _layout(name, comb):
    """Draws a `write_artifact` value and its columns as (header cell, type, values)."""
    return {
        "hom_trace": _hom_traces(comb),
        "spectrum_labelled": _spectra(labelled=True),
        "spectrum_ranked": _spectra(labelled=False),
        "fringe_scan": _fringe_scans(),
        "revival_records": _revival_records(),
    }[name]


@pytest.mark.parametrize(
    "layout",
    ["hom_trace", "spectrum_labelled", "spectrum_ranked", "fringe_scan", "revival_records"],
)
@settings(max_examples=30)
@given(data=st.data())
def test_every_csv_layout_reads_back_bit_for_bit(tmp_path_factory, comb_45, layout, data):
    value, columns = data.draw(_layout(layout, comb_45))
    path = tmp_path_factory.getbasetemp() / f"round_trip_{layout}.csv"
    write_artifact(path, value)
    rows = list(csv.reader(path.read_text(encoding="utf-8").splitlines()))
    assert rows[0] == [name for name, _, _ in columns]
    assert all(len(row) == len(columns) for row in rows[1:])
    for i, (_, kind, written) in enumerate(columns):
        read = [kind(row[i]) for row in rows[1:]]
        if kind is int:
            assert read == np.asarray(written).tolist()
        else:  # bit for bit, so -0.0 comes back as -0.0
            bits = np.asarray(written, float).view(np.uint64)
            assert np.array_equal(np.array(read, float).view(np.uint64), bits)
