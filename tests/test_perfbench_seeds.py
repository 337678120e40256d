"""The benchmark's vc-network run shape is clean at every seed.

``perfbench/run.py`` rates a change over seeds 1-10 as well as its
reference seed 7, and a run that raises, fails an invariant or cannot
build its record makes the whole benchmark run exit 1.  This sweep
drives the same ``SystemWorkload.run`` (set-up, run, finalize,
``checks.system_record`` and ``checks.invariants``) on a 25-minute
``paper-vc`` slice at each of those seeds, so a seed-specific failure
shows up in the test suite rather than only in a benchmark pair.

``paper-vc``'s 30-minute warmup does not fit in 25 minutes, so the
slice's spec drops it; the warmup is scoring metadata only and moves
no simulated bit.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SLICE_MINUTES = 25.0
# Events each seed's slice dispatches.
PINNED_EVENTS = {1: 94747, 2: 96919, 3: 93744, 4: 94537, 5: 93756,
                 6: 95298, 7: 95863, 8: 95400, 9: 95230, 10: 94639}


@pytest.fixture(scope="module")
def workload():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
        # The benchmark's top-level module names stay out of the suite.
        for name in ("checks", "workloads"):
            sys.modules.pop(name, None)

    class Slice(workloads.SystemWorkload):
        def spec(self, seed):
            from repro.scenarios.registry import get_scenario

            base = get_scenario(self.scenario)
            return dataclasses.replace(
                base, config=dataclasses.replace(base.config, seed=seed),
                run_minutes=self.minutes, warmup_minutes=0.0)

    return Slice("vc-network", "paper-vc", minutes=SLICE_MINUTES)


def test_every_seed_runs_clean(workload):
    events = {}
    for seed in sorted(PINNED_EVENTS):
        repeat = workload.run(seed)
        assert repeat.failed == 0, seed
        assert repeat.problems == [], (seed, repeat.problems)
        assert len(repeat.records) == 1 and repeat.digest, seed
        events[seed] = repeat.events
    assert events == PINNED_EVENTS
