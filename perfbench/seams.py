"""Layer timers attached from outside the program.

Each seam names the public functions and methods that form one layer
boundary.  ``install`` replaces every one of them with a timing wrapper
for the duration of a traced run and ``Installed.restore`` puts the
originals back, so untraced runs in the same process execute the
program's own code objects.  Nothing under ``src/`` is edited.

A wrapper counts calls and accumulates *self* time: the wrapper's
inclusive time minus the inclusive time of wrapped seams nested inside
it, so the self times of all seams partition the traced run without
double counting.

Functions imported by name (``from repro.physics.psychrometrics import
dew_point``) live on in the importing module's globals; ``install``
rebinds every such alias it finds in a loaded ``repro`` module or class.
References it cannot rebind -- a default argument, a closure cell or a
module-level container holding the original -- are returned by
``Installed.unobserved`` so a report can say the seam is incomplete
instead of silently under-counting.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from typing import Callable, Dict, List, Tuple

# Seam name -> (module, attribute path) targets.  Paths with a dot are
# methods patched on the class that defines them; plain names are
# module-level functions, patched in the defining module and in every
# module or class that imported them by name.
SEAMS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "sim.dispatch": (("repro.sim.engine", "Simulator.run_until"),),
    "sim.schedule": tuple(("repro.sim.engine", f"Simulator.{name}")
                          for name in ("schedule_at", "schedule_in",
                                       "post_at", "post_in")),
    "sim.series": (("repro.sim.tracing", "TraceSeries.append"),),
    "net.mac": (("repro.net.mac", "CsmaMac.send"),),
    "net.medium": (("repro.net.medium", "BroadcastMedium.transmit"),),
    "net.bus.ingest": (("repro.net.broadcast",
                        "TypeBus.receive_subscribed"),),
    "net.bus.query": tuple(("repro.net.broadcast", f"TypeBus.{name}")
                           for name in ("fresh_values", "mean_of",
                                        "latest_value", "age_of",
                                        "oldest_age")),
    "net.adaptive": (("repro.net.adaptive",
                      "AdaptiveTransmitter.on_sample"),),
    "devices.sensor": (("repro.devices.sensors", "SensorModel.read"),
                       ("repro.devices.sensors",
                        "SHT75Sensor.read_temperature"),
                       ("repro.devices.sensors",
                        "SHT75Sensor.read_humidity")),
    "devices.board.report": tuple(
        ("repro.devices.boards", f"{cls}.report")
        for cls in ("Board", "ControlC1", "ControlC2", "ControlV1",
                    "ControlV2", "ControlV3")),
    "devices.board.estimate": tuple(
        ("repro.devices.boards", f"Board.{name}")
        for name in ("estimate_mean", "fresh_value", "bus_value")),
    "control.law": (
        ("repro.control.ventilation", "VentilationController.step"),
        ("repro.control.radiant", "RadiantCoolingController.step"),
        ("repro.control.pid", "PIDController.update"),
        ("repro.control.policy_consensus", "ConsensusVentilationLaw.step"),
        ("repro.control.policy_consensus", "ConsensusRadiantLaw.step"),
        ("repro.control.policy_deadband", "DeadbandRadiantLaw.step"),
        ("repro.control.policy_deadband", "DeadbandVentilationLaw.step")),
    "physics.kernel": (("repro.physics.vector",
                        "VectorPlantKernel.macro_step"),
                       ("repro.physics.vector", "VectorPlantKernel.step")),
    "physics.spectral": (("repro.physics.spectral", "decomposition"),),
    "physics.psychro": tuple(
        ("repro.physics.psychrometrics", name)
        for name in ("dew_point", "relative_humidity_from_dew_point",
                     "saturation_vapor_pressure", "vapor_pressure",
                     "humidity_ratio", "humidity_ratio_from_dew_point",
                     "dew_point_from_humidity_ratio",
                     "relative_humidity_from_ratio", "moist_air_enthalpy",
                     "condensation_occurs",
                     "saturation_vapor_pressure_array", "dew_point_array",
                     "humidity_ratio_from_dew_point_array",
                     "dew_point_from_humidity_ratio_array",
                     "relative_humidity_from_ratio_array",
                     "moist_air_enthalpy_array")),
    "scenarios.build": (("repro.scenarios.spec", "prepare_run"),),
    "runtime.pool": (("repro.runtime.pool", "run_specs"),),
    "analysis.score": (("repro.analysis.bakeoff", "score_payload"),
                       ("repro.workloads.bakeoff", "merge_bakeoff")),
}


class Ledger:
    """Per-seam ``[calls, self_s]`` plus the stack of open seam frames.

    ``returned`` keeps what each ``scenarios.build`` call returned, so
    a traced matrix run can inspect the systems its runs built even
    though ``run_specs`` only hands back compact payloads.  The
    workload that reads it empties it again, so a kept ledger does not
    keep whole systems alive.
    """

    def __init__(self) -> None:
        self.stats: Dict[str, List[float]] = {name: [0, 0.0]
                                              for name in SEAMS}
        self.stack: List[List[float]] = []
        self.returned: List[object] = []

    def calls(self, seam: str) -> int:
        return int(self.stats[seam][0])

    def self_s(self, seam: str) -> float:
        return self.stats[seam][1]

    def total_self_s(self) -> float:
        return sum(stat[1] for stat in self.stats.values())


def _timed(fn: Callable, stat: List[float], stack: List[List[float]],
           keep: List[object] = None) -> Callable:
    perf = time.perf_counter

    def wrapper(*args, **kwargs):
        frame = [0.0]
        stack.append(frame)
        t0 = perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = perf() - t0
            stack.pop()
            stat[0] += 1
            stat[1] += elapsed - frame[0]
            if stack:
                stack[-1][0] += elapsed
        if keep is not None:
            keep.append(result)
        return result

    functools.update_wrapper(wrapper, fn)
    wrapper.__seam__ = True
    return wrapper


class Installed:
    """Handle for an installed set of wrappers."""

    def __init__(self) -> None:
        self._patches: List[Tuple[object, str, object]] = []
        self.originals: Dict[int, str] = {}

    def patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def unobserved(self) -> List[str]:
        """Places still holding an original seam target after install."""
        found = []
        for mod_name, module in sorted(_repro_modules()):
            for name, value in vars(module).items():
                for where, ref in _references(value):
                    seam = self.originals.get(id(ref))
                    if seam is not None:
                        found.append(f"{seam}: {mod_name}.{name}{where}")
        return sorted(set(found))


def _repro_modules() -> List[Tuple[str, types.ModuleType]]:
    return [(name, module) for name, module in list(sys.modules.items())
            if (name == "repro" or name.startswith("repro."))
            and module is not None]


def _references(value: object):
    """(suffix, object) pairs an attribute holds beyond itself.

    Covers function defaults and closure cells (also of methods on
    classes) and the members of module-level containers.
    """
    funcs = []
    if hasattr(value, "__seam__"):
        return
    if isinstance(value, types.FunctionType):
        funcs.append(("", value))
    elif isinstance(value, type):
        for attr, member in vars(value).items():
            if isinstance(member, (staticmethod, classmethod)):
                member = member.__func__
            if (isinstance(member, types.FunctionType)
                    and not hasattr(member, "__seam__")):
                funcs.append((f".{attr}", member))
    elif isinstance(value, (dict, list, tuple, set, frozenset)):
        items = value.values() if isinstance(value, dict) else value
        for item in items:
            if callable(item):
                yield "[...]", item
    for where, fn in funcs:
        for default in (fn.__defaults__ or ()):
            yield f"{where} default", default
        for default in (fn.__kwdefaults__ or {}).values():
            yield f"{where} default", default
        for cell in (fn.__closure__ or ()):
            try:
                yield f"{where} closure", cell.cell_contents
            except ValueError:  # empty cell
                continue


def install(ledger: Ledger) -> Installed:
    """Wrap every target of every seam; returns the restore handle."""
    import importlib

    handle = Installed()
    for seam in SEAMS:
        stat = ledger.stats[seam]
        keep = ledger.returned if seam == "scenarios.build" else None
        for mod_name, path in SEAMS[seam]:
            module = importlib.import_module(mod_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                handle.originals[id(original)] = seam
                handle.patch(cls, attr,
                             _timed(original, stat, ledger.stack, keep))
                continue
            original = getattr(module, path)
            handle.originals[id(original)] = seam
            wrapper = _timed(original, stat, ledger.stack, keep)
            for _, other in _repro_modules():
                for name, value in list(vars(other).items()):
                    if value is original:
                        handle.patch(other, name, wrapper)
                    elif isinstance(value, type):
                        for attr, member in list(vars(value).items()):
                            if member is original:
                                handle.patch(value, attr, wrapper)
    return handle
