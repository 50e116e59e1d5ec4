"""The benchmark's traced rebuild of a run gives the closed loop's run.

``benchmarks/traced.py`` rebuilds ``run_experiment`` from the package's
public per-step functions (``choose_action`` on an ``ErrorHistory`` ring,
``observe``, ``predict``, ``update_online``) to time each module from
outside, and the benchmark requires its outputs to equal the untraced
command's. Its scripts are not collected with these tests, so this test
imports the file as it stands and checks that contract on small runs.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from visuomotor.controllers import ControllerKind
from visuomotor.harness import default_config, run_experiment

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "traced.py"
_spec = importlib.util.spec_from_file_location("benchmark_traced", _PATH)
traced = importlib.util.module_from_spec(_spec)
# Its dataclasses look their module up by name while they are built.
sys.modules[_spec.name] = traced
_spec.loader.exec_module(traced)


@pytest.mark.parametrize("kind", list(ControllerKind))
def test_traced_experiment_gives_run_experiments_trace_and_readout(kind):
    config = default_config(kind, 3, steps=60, camera=6, hidden_count=5)
    rebuilt = traced.traced_experiment(config).result
    result = run_experiment(config)
    assert rebuilt.valid and result.valid
    assert rebuilt.trace == result.trace
    assert rebuilt.metrics == result.metrics
    assert rebuilt.elm_state.readout.tobytes() == result.elm_state.readout.tobytes()
