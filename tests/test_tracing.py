"""The benchmark's tracer (perfbench/tracing.py) installs on the current
program and removes itself cleanly, so a renamed or deleted name that it
wraps fails here rather than only in a benchmark run."""

import importlib.util
import time
from pathlib import Path

import pytest

from mirnet_forge import blocks as B
from mirnet_forge.config import RunConfig

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("mode", ["off", "spans", "memory"])
def test_probe_installs_and_removes_cleanly(mode):
    init, call = B.MIRNet.__init__, B.MIRNet.__call__
    probe = _tracing().Probe(mode)
    try:
        probe.install()
        net = B.MIRNet(RunConfig().network, seed=0)
    finally:
        assert probe.finish(time.perf_counter()) is True
    assert (B.MIRNet.__init__, B.MIRNet.__call__) == (init, call)
    if mode == "spans":
        assert probe.params == B.count_parameters(net)[1]
