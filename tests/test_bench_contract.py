"""The benchmark's tracer still finds what it hooks in eprsim.

``perfbench/spans.py`` wraps functions by name in the module namespaces
where the program looks them up.  A rename there fails no other test,
only the traced benchmark run.
"""

import importlib
from pathlib import Path

import pytest

from eprsim.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# Hooks the benchmark still lists for layers the program no longer has.
RETIRED_HOOKS = {
    "eprsim.events.EventLog.paired_view",
    "eprsim.cli.tabulate",
    "eprsim.analysis.tabulate",
    "eprsim.coincidence.pair_filter",
    "eprsim.coincidence.stream_match",
    "eprsim.analysis.run_experiment",
    "eprsim.oracle.correlation_exact",
    "eprsim.cli.chsh",
    "eprsim.analysis.chsh",
}


@pytest.fixture
def tracer(monkeypatch):
    """A spans.Tracer installed for one test; the wrapped names are restored after."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    for modname, names in spans.HOOKS.items():
        mod = importlib.import_module(modname)
        for name in names:
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, getattr(mod, name))
    tracer = spans.Tracer()
    missing = spans.install(tracer)
    return spans, tracer, missing


def test_traced_runs_select_every_window_through_window_sweep(tracer, tmp_path):
    spans, tracer, missing = tracer
    out = str(tmp_path)
    with tracer.span(spans.ROOT):
        # A grid, one paired window and one stream window: each is one window_sweep call.
        assert main(["--mode", "sweep", "--pairs", "3000", "--windows", "1:1000:log3", "--out", out]) == 0
        assert main(["--mode", "mc", "--pairs", "3000", "--window", "10", "--out", out]) == 0
        assert main(["--mode", "mc", "--matcher", "stream", "--emission", "poisson:0.005", "--window", "1000",
                     "--pairs", "3000", "--out", out]) == 0

    assert set(missing) == RETIRED_HOOKS
    layers = spans.layer_times(tracer.spans)
    assert layers["analysis.window_sweep"]["calls"] == 3
    assert layers["events.run_experiment"]["calls"] == 3
    assert tracer.generated == 9000
    assert tracer.matches == []


def test_traced_tag_round_trip_calls_each_lab_layer_once(tracer, tmp_path):
    # lab-roundtrip's tag and generation metrics are the spans of these three hooked calls.
    spans, tracer, missing = tracer
    out = str(tmp_path)
    with tracer.span(spans.ROOT):
        assert main(["--mode", "mc", "--pairs", "3000", "--tags-out", "tags", "--out", out]) == 0
        assert main(["--mode", "reanalyze", "--tags-in", "tags", "--windows", "1:1000:log3", "--out", out]) == 0

    layers = spans.layer_times(tracer.spans)
    for layer in ("tagio.write_tags", "tagio.read_tags", "events.run_experiment"):
        assert layers[layer]["calls"] == 1, layer
    assert tracer.generated == 3000


def test_traced_oracle_run_calls_the_curve_and_chsh_once(tracer, tmp_path):
    # oracle-curve's layer metrics are the spans of these two hooked calls.
    spans, tracer, missing = tracer
    with tracer.span(spans.ROOT):
        assert main(["--mode", "oracle", "--window", "10", "--out", str(tmp_path)]) == 0

    layers = spans.layer_times(tracer.spans)
    for layer in ("oracle.correlation_curve", "oracle.chsh_exact"):
        assert layers[layer]["calls"] == 1, layer
