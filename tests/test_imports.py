"""Which modules a process loads: the serving path never imports scipy.

scipy costs a live process about 0.3 s and 40 MB at import, yet only the
LP initializer and the Erlang/Gamma densities and fits use it, and no
live window runs them.  Each case starts a fresh interpreter on this
checkout's ``src/``, because this test session imported scipy long ago.
The cases check which modules are loaded, never time or memory, so they
cannot flake on a busy host.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def scipy_loaded(*steps: str) -> list[bool]:
    """Run *steps* in order in a fresh interpreter; after each step,
    whether ``scipy`` is in ``sys.modules``."""
    lines = ["import json, sys", f"sys.path.insert(0, {str(SRC)!r})",
             "seen = []"]
    for step in steps:
        lines += [textwrap.dedent(step), "seen.append('scipy' in sys.modules)"]
    lines.append("print(json.dumps(seen))")
    done = subprocess.run(
        [sys.executable, "-c", "\n".join(lines)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", ["repro.cli", "repro.live"])
def test_serving_entry_points_never_import_scipy(module):
    assert scipy_loaded(f"import {module}") == [False], (
        f"import {module} loaded scipy; keep scipy imports inside the "
        "functions that call it (python -X importtime shows who pulls it in)"
    )


def test_lp_initializer_imports_scipy_on_first_use():
    """Simulating and censoring a trace loads no scipy; the LP solve
    loads it and still returns a valid event set."""
    build = """
        from repro.inference import lp_initialize
        from repro.network import build_tandem_network
        from repro.observation import TaskSampling
        from repro.simulate import simulate_network
        sim = simulate_network(build_tandem_network(4.0, [6.0, 8.0]), 30,
                               random_state=1)
        trace = TaskSampling(fraction=0.3).observe(sim.events, random_state=0)
    """
    solve = "lp_initialize(trace, sim.true_rates()).validate()"
    assert scipy_loaded(build, solve) == [False, True]
