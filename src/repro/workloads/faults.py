"""Fault injection: the failures a deployed system must survive.

The paper motivates the wireless design partly by maintainability ("if
… existing devices need to be repaired"), which presumes devices *do*
fail.  This module scripts the classic failure modes against a running
:class:`~repro.core.system.BubbleZero`:

* **SensorStuck / SensorDrift** — a sensor reports a frozen or biased
  value from some instant on (optionally until a repair clears it);
* **NodeCrash** — a battery node dies (flat cells, bricked flash) and
  stops sampling and transmitting;
* **ChannelJam** — a foreign 2.4 GHz interferer occupies the channel at
  a duty cycle for an interval (the microwave-oven scenario).

Robustness comes from the architecture the paper chose: type-addressed
broadcast with consumer-side averaging means losing one supplier
degrades an estimate instead of severing a point-to-point link.

Scripts are validated *atomically* before anything is scheduled: a
fault addressed to an unknown ``device_id`` (or a jam against a system
without a radio) raises before the first event is queued, so a typo
can never leave a half-applied scenario silently running.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Union

from repro.net.packet import DataType, Packet
from repro.obs.events import FAULT_CLEARED, FAULT_INJECTED
from repro.sim.engine import PRIORITY_NETWORK


class UnknownDeviceError(LookupError):
    """A fault script addressed a device the system does not have."""

    def __init__(self, unknown: Sequence[str],
                 available: Sequence[str]) -> None:
        self.unknown = tuple(sorted(set(unknown)))
        self.available = tuple(sorted(available))
        super().__init__(
            f"fault script addresses unknown device(s) "
            f"{', '.join(repr(d) for d in self.unknown)}; "
            f"known bt-devices: {', '.join(self.available) or '(none)'}")


@dataclass(frozen=True)
class SensorStuck:
    """From ``time``, device ``device_id``'s sensor reads ``value``.

    A non-None ``until`` schedules a repair visit: the sensor recovers
    at that instant (the hook time-to-recover scoring keys on).
    """

    time: float
    device_id: str
    value: float
    until: Optional[float] = None

    def __post_init__(self) -> None:
        _check_clearance(self.time, self.until)


@dataclass(frozen=True)
class SensorDrift:
    """From ``time``, the sensor gains a calibration error ``offset``.

    A non-None ``until`` clears the drift at that instant.
    """

    time: float
    device_id: str
    offset: float
    until: Optional[float] = None

    def __post_init__(self) -> None:
        _check_clearance(self.time, self.until)


@dataclass(frozen=True)
class NodeCrash:
    """At ``time``, bt-device ``device_id`` stops forever."""

    time: float
    device_id: str


@dataclass(frozen=True)
class ChannelJam:
    """Interference occupying the channel between ``start`` and ``end``.

    ``duty`` is the fraction of airtime the jammer holds (a Wi-Fi
    neighbour is ~0.2; a misbehaving transmitter ~0.9).
    """

    start: float
    end: float
    duty: float = 0.5

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("jam interval must have positive length")
        if not (0.0 < self.duty <= 1.0):
            raise ValueError("duty must be in (0, 1]")


def _check_clearance(time: float, until: Optional[float]) -> None:
    if until is not None and until <= time:
        raise ValueError("fault clearance must come after its onset")


Fault = Union[SensorStuck, SensorDrift, NodeCrash, ChannelJam]


class FaultScript:
    """An ordered set of faults, schedulable onto a system."""

    def __init__(self, faults: Sequence[Fault] = ()) -> None:
        self.faults: List[Fault] = list(faults)

    def add(self, fault: Fault) -> "FaultScript":
        self.faults.append(fault)
        return self

    def clearance_time(self) -> Optional[float]:
        """Instant the last self-clearing fault ends, or None.

        Crashes never clear; a script of only permanent faults has no
        clearance time and recovery scoring is undefined for it.
        """
        ends = [f.until for f in self.faults
                if isinstance(f, (SensorStuck, SensorDrift))
                and f.until is not None]
        ends += [f.end for f in self.faults if isinstance(f, ChannelJam)]
        return max(ends) if ends else None

    def validate_roster(self, available: Sequence[str],
                        has_radio: bool = True) -> None:
        """Raise unless every fault addresses a device in ``available``.

        Lets a registry validate a named fault script against a
        :meth:`~repro.scenarios.topology.SystemTopology.sensor_node_ids`
        roster once at registration, without building a live system.
        Collects all unknown device ids into one
        :class:`UnknownDeviceError` so a typo surfaces atomically.
        """
        known = set(available)
        unknown = [f.device_id for f in self.faults
                   if isinstance(f, (SensorStuck, SensorDrift, NodeCrash))
                   and f.device_id not in known]
        if unknown:
            raise UnknownDeviceError(unknown, list(available))
        if (any(isinstance(f, ChannelJam) for f in self.faults)
                and not has_radio):
            raise RuntimeError("cannot jam a system running in direct mode")

    def validate_against(self, system) -> None:
        """Raise unless *every* fault is schedulable on ``system``.

        Collects all unknown device ids into one
        :class:`UnknownDeviceError` so a typo surfaces before a single
        event is queued — ``apply_to`` must be atomic, never leaving a
        partially-applied script behind.
        """
        self.validate_roster(
            [node.device_id for node in system.bt_nodes],
            has_radio=system.medium is not None)

    def apply_to(self, system, validate: bool = True) -> None:
        """Schedule every fault against a built (unstarted ok) system.

        ``validate=False`` skips the roster check for scripts already
        validated at registry-registration time.
        """
        if validate:
            self.validate_against(system)
        for fault in self.faults:
            if isinstance(fault, SensorStuck):
                node = _find_node(system, fault.device_id)
                system.sim.schedule_at(
                    fault.time,
                    lambda n=node, f=fault: (
                        n.sensor.fail_stuck(f.value),
                        _emit_fault(system, "stuck", n.device_id,
                                    value=f.value, until=f.until)),
                    name=f"fault-stuck/{fault.device_id}")
                _schedule_recovery(system, node, fault.until, "stuck")
            elif isinstance(fault, SensorDrift):
                node = _find_node(system, fault.device_id)
                system.sim.schedule_at(
                    fault.time,
                    lambda n=node, f=fault: (
                        n.sensor.fail_drift(f.offset),
                        _emit_fault(system, "drift", n.device_id,
                                    offset=f.offset, until=f.until)),
                    name=f"fault-drift/{fault.device_id}")
                _schedule_recovery(system, node, fault.until, "drift")
            elif isinstance(fault, NodeCrash):
                node = _find_node(system, fault.device_id)
                system.sim.schedule_at(
                    fault.time,
                    lambda n=node: (n.crash(),
                                    _emit_fault(system, "crash",
                                                n.device_id)),
                    name=f"fault-crash/{fault.device_id}")
            elif isinstance(fault, ChannelJam):
                _schedule_jam(system, fault)
            else:  # pragma: no cover - the Union is exhaustive
                raise TypeError(f"unknown fault: {fault!r}")


def _emit_fault(system, kind: str, device_id: str, **fields) -> None:
    """Count a fault injection and record it on the system's event log
    (if enabled).

    Called from inside the already-scheduled fault callbacks, so it
    adds no simulator events and draws no randomness — observability
    must never perturb the run it observes.
    """
    system.faults_injected += 1
    obs = system.sim.obs
    if obs.enabled:
        obs.events.emit(FAULT_INJECTED, system.sim.now, fault=kind,
                        device=device_id, **fields)


def _emit_clearance(system, kind: str, device_id: str) -> None:
    obs = system.sim.obs
    if obs.enabled:
        obs.events.emit(FAULT_CLEARED, system.sim.now, fault=kind,
                        device=device_id)


def _find_node(system, device_id: str):
    for node in system.bt_nodes:
        if node.device_id == device_id:
            return node
    raise LookupError(f"no bt-device called {device_id!r}")


def _schedule_recovery(system, node, until: Optional[float],
                       kind: str) -> None:
    if until is None:
        return
    system.sim.schedule_at(
        until,
        lambda n=node: (n.sensor.recover(),
                        _emit_clearance(system, kind, n.device_id)),
        name=f"fault-clear/{node.device_id}")


JAM_BURST_PAYLOAD = 100  # near-maximal frames: ~3.7 ms of airtime each


def _schedule_jam(system, jam: ChannelJam) -> None:
    """Emit jamming bursts directly onto the medium at the duty cycle."""
    if system.medium is None:
        raise RuntimeError("cannot jam a system running in direct mode")
    sim = system.sim
    burst_airtime = Packet(
        data_type=DataType.TEMPERATURE, source="jammer", created_at=0.0,
        payload={}, payload_bytes=JAM_BURST_PAYLOAD).airtime_s()
    interval = burst_airtime / jam.duty

    def burst(at: float) -> None:
        if at >= jam.end:
            # A run ending before jam.end never reaches this branch;
            # its telemetry shows the injection without a clearance,
            # which is accurate — the jam never ended.
            _emit_clearance(system, "jam", "channel")
            return
        packet = Packet(data_type=DataType.TEMPERATURE, source="jammer",
                        created_at=sim.now, payload={"jam": True},
                        payload_bytes=JAM_BURST_PAYLOAD)
        system.medium.transmit(packet, "jammer")
        sim.schedule_at(at + interval, lambda: burst(at + interval),
                        priority=PRIORITY_NETWORK, name="jam-burst")

    def start() -> None:
        _emit_fault(system, "jam", "channel", duty=jam.duty, end=jam.end)
        burst(jam.start)

    sim.schedule_at(jam.start, start,
                    priority=PRIORITY_NETWORK, name="jam-start")


def shift_fault(fault: Fault, t0: float) -> Fault:
    """Rebase a cell-relative fault onto the simulator's clock."""
    if isinstance(fault, (SensorStuck, SensorDrift)):
        until = None if fault.until is None else fault.until + t0
        return replace(fault, time=fault.time + t0, until=until)
    if isinstance(fault, NodeCrash):
        return replace(fault, time=fault.time + t0)
    if isinstance(fault, ChannelJam):
        return replace(fault, start=fault.start + t0, end=fault.end + t0)
    raise TypeError(f"unknown fault: {fault!r}")  # pragma: no cover


def describe_fault(fault: Fault) -> str:
    """One compact human-readable clause per fault."""
    if isinstance(fault, SensorStuck):
        return f"stuck {fault.device_id}@{fault.value:g}"
    if isinstance(fault, SensorDrift):
        return f"drift {fault.device_id}{fault.offset:+g}"
    if isinstance(fault, NodeCrash):
        return f"crash {fault.device_id}"
    if isinstance(fault, ChannelJam):
        return f"jam {fault.duty:.0%} {fault.start:g}-{fault.end:g}s"
    raise TypeError(f"unknown fault: {fault!r}")  # pragma: no cover


def describe_faults(faults: Sequence[Fault]) -> str:
    """Comma-joined :func:`describe_fault` over a whole script."""
    return ", ".join(describe_fault(fault) for fault in faults)
