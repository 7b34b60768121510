"""Tests of the benchmark's own machinery: generator, checks and tracing.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import dataclasses
import itertools

import numpy as np
import pytest

import bfcsim
from checks import CheckFailed, check_trace, quad_freq_samples
from tracing import Span, Tracer, layer_metrics, self_times
from workloads import WORKLOADS, CliAnalysis, HomSweep


def _fingerprint(op) -> bytes:
    parts = []
    for f in dataclasses.fields(op):
        value = getattr(op, f.name)
        parts.append(value.tobytes() if isinstance(value, np.ndarray) else repr(value).encode())
    return b"\0".join(parts)


def _inputs(workload, seed, rounds=2):
    ops = itertools.chain.from_iterable(itertools.islice(workload.rounds(seed), rounds))
    return [_fingerprint(op) for op in ops]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    workload = WORKLOADS[name]()
    assert _inputs(workload, 7) == _inputs(WORKLOADS[name](), 7)
    assert _inputs(workload, 7) != _inputs(workload, 8)


def test_generated_files_are_byte_identical(tmp_path):
    workload = CliAnalysis()
    for run in ("a", "b"):
        for i, op in enumerate(next(workload.rounds(3))):
            (tmp_path / run / str(i)).mkdir(parents=True)
            workload.prepare(op, tmp_path / run / str(i))
    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.*"))
    assert files
    for rel in files:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_generated_visibilities_lie_strictly_inside_unit_interval():
    for op in itertools.chain.from_iterable(itertools.islice(CliAnalysis().rounds(0), 8)):
        v = np.array([float(row.split(",")[1]) for row in op.visibilities_csv.split()[1:]])
        assert np.all((v > 0.0) & (v < 1.0))


def test_hom_sweep_grids_are_increasing_and_sized():
    for op in next(HomSweep().rounds(11)):
        assert np.all(np.diff(op.delays_ps) > 0.0)
        hw = np.pi * op.fsr_ghz * 1e9 / op.finesse
        size = op.delays_ps.size * quad_freq_samples(op.n_max, 2 * np.pi * op.fsr_ghz * 1e9, hw)
        assert 0.9e7 <= size <= 5e7


@pytest.fixture(scope="module")
def preset_trace():
    comb = bfcsim.build_comb(bfcsim.cavity_preset("45ghz"), bfcsim.DEFAULT_SOURCE)
    delays = np.arange(-25.0, 25.05, 0.1)
    return comb, delays, bfcsim.simulate_hom_trace(comb, delays).coincidence


def test_closed_form_check_accepts_the_quadrature(preset_trace):
    comb, delays, c = preset_trace
    assert check_trace(delays, c, comb, np.random.default_rng(0)) <= 1e-6


def test_closed_form_check_allows_for_the_quadrature_span():
    # Finesse 3.5 with a sinc_squared envelope: the span cut off 2 bins past
    # the comb leaves a gap just above 1e-6, inside the truncation allowance.
    cavity = bfcsim.CavitySpec(43.6e9, 43.6e9 / 3.5)
    source = bfcsim.SourceSpec(phase_matching_fwhm_hz=258e9)
    comb = bfcsim.build_comb(cavity, source, 17)
    delays = np.linspace(-0.5, 0.5, 41)  # few enough that every delay is checked
    trace = bfcsim.simulate_hom_trace(comb, delays)
    assert 1e-6 < check_trace(delays, trace.coincidence, comb, np.random.default_rng(0)) < 2e-6


def test_closed_form_check_rejects_shifted_dips(preset_trace):
    comb, delays, _ = preset_trace
    quarter = comb.round_trip_ps / 8.0
    shifted = bfcsim.simulate_hom_trace(comb, delays + quarter).coincidence
    with pytest.raises(CheckFailed):
        check_trace(delays, shifted, comb, np.random.default_rng(0))


def test_closed_form_check_rejects_scaled_visibility(preset_trace):
    comb, delays, c = preset_trace
    with pytest.raises(CheckFailed):
        check_trace(delays, 1.0 - 0.99 * (1.0 - c), comb, np.random.default_rng(0))


def test_self_times_on_a_synthetic_tree():
    spans = [
        Span("op", None, 0.0, 10.0),
        Span("a", 0, 1.0, 4.0),
        Span("a.inner", 1, 2.0, 3.0),
        Span("b", 0, 3.0, 6.0),  # overlaps a
        Span("c", 0, 8.0, 12.0),  # runs past its parent
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0])


def test_layer_metrics_on_a_synthetic_trace():
    spans = [
        Span("op", None, 0.0, 10.0),
        Span("cli", 0, 1.0, 9.0),
        Span("io.write", 1, 2.0, 4.0, counts={"bytes": 100}),
        Span("op", None, 10.0, 20.0),
        Span("cli", 3, 11.0, 19.0, error=True),
    ]
    m = layer_metrics(spans)
    assert m["trace.op_s"][0] == pytest.approx(10.0)
    assert m["trace.unattributed_s"][0] == pytest.approx(2.0)
    assert m["cli.self_s"][0] == pytest.approx(7.0)
    assert m["io.write_s"][0] == pytest.approx(1.0)
    assert m["io.write_bytes"][0] == pytest.approx(50.0)
    assert m["cli.errors"][0] == 1.0
    assert m["hom.trace_calls"][0] == 0.0


def test_missing_wrap_target_fails_loudly():
    tracer = Tracer()
    with pytest.raises(RuntimeError, match="no_such_function"):
        tracer.install([
            ("bfcsim", "build_comb", "comb.build", None),
            ("bfcsim", "no_such_function", "x", None),
        ])
    assert bfcsim.build_comb.__module__ == "bfcsim.comb"  # earlier wraps undone


def test_wrapped_calls_record_spans_and_unwrap():
    original = bfcsim.build_comb
    tracer = Tracer()
    tracer.install([("bfcsim", "build_comb", "comb.build", lambda r, a, k: {"bins": r.bin_weights.size})])
    try:
        tracer.root(bfcsim.build_comb, bfcsim.cavity_preset("45ghz"), bfcsim.DEFAULT_SOURCE)
    finally:
        tracer.uninstall()
    assert bfcsim.build_comb is original
    assert [(s.name, s.parent) for s in tracer.spans] == [("op", None), ("comb.build", 0)]
    assert tracer.spans[1].counts == {"bins": 33}
