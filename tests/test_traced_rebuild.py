"""The benchmark's traced rebuild of a run gives the closed loop's run.

``benchmarks/traced.py`` rebuilds ``run_experiment`` from the package's
public per-step functions (``choose_action`` on an ``ErrorHistory`` ring,
``observe``, ``predict``, ``update_online``) to time each module from
outside, and rebuilds the ``run`` and ``compare`` commands around it;
the benchmark requires their outputs to equal the untraced command's.
Its scripts are not collected with these tests, so these tests import
the file as it stands and check that contract on small runs.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from visuomotor import cli
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


TINY = ["--steps", "60", "--camera", "6", "--hidden", "5"]


@pytest.mark.parametrize("argv", [
    ["run", "--controller", "maxlp", "--seed", "4", *TINY],
    ["compare", "--seeds", "1,2", "--workers", "2", *TINY],
])
def test_traced_command_writes_the_cli_files_and_stdout(tmp_path, capsys, argv):
    # The same --out path for both, since stdout names it; the command's
    # stdout is kept as the rebuild keeps its own, in stdout.txt.
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_OK
    (out / "stdout.txt").write_text(capsys.readouterr().out)
    expected = out.rename(tmp_path / "cli")
    assert traced.traced_command([*argv, "--out", str(out)]).exit_code == cli.EXIT_OK
    names = sorted(p.name for p in out.iterdir())
    assert names == sorted(p.name for p in expected.iterdir())
    for name in names:
        assert (out / name).read_bytes() == (expected / name).read_bytes(), name
