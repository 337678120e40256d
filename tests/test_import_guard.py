"""The paper's code path never imports networkx.

``networkx`` is only needed by the multihop topology and the dataflow
analysis, and is not a runtime dependency.  A fresh interpreter imports
the package, the CLI and the pool, runs a simulated minute of the
§V-C network trial, and must still not have loaded it.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import dataclasses
import sys

import repro
import repro.cli
import repro.runtime.pool
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import prepare_run

spec = dataclasses.replace(get_scenario("paper-vc"), run_minutes=1.0,
                           warmup_minutes=0.0)
system, _ = prepare_run(spec)
system.start()
system.run(minutes=1.0)
assert system.sniffer.frame_count > 0
print(sorted(name for name in sys.modules
             if name.split(".")[0] == "networkx"))
"""


def test_paper_path_never_imports_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    done = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
