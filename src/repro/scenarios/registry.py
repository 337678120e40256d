"""The named experiment registry.

Every hand-wired experiment in the repo is registered here as a
:class:`~repro.scenarios.spec.ScenarioSpec` under a stable name: the
paper's §V-A pulldown and §V-C network trial, the COP and lifetime
figures, the fault-campaign baseline and every campaign cell, the
sweep and bench trial shapes, the golden-fingerprint trials, and the
scaled-out demonstration topologies.  Front-ends (:mod:`repro.cli`,
:mod:`repro.runtime`, :mod:`repro.workloads.campaign`,
:mod:`repro.workloads.sweep`, :mod:`repro.bench`,
``tests/golden/regenerate.py``) look experiments up by name instead of
re-assembling them, so there is exactly one definition of each.

Fault programs are registered separately (``quick/<cell>`` and
``full/<cell>`` namespaces) and roster-validated **once** at
registration time against the topology's declared device roster — a
typo in a device id fails at import, not twenty minutes into a
campaign.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import BubbleZeroConfig, NetworkConfig
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.topology import (
    SystemTopology,
    grid_topology,
    paper_topology,
)
from repro.workloads.chaos import quick_hazard, synthesize_faults
from repro.workloads.faults import (
    ChannelJam,
    Fault,
    FaultScript,
    NodeCrash,
    SensorDrift,
    SensorStuck,
)

_FAULT_SCRIPTS: Dict[str, FaultScript] = {}
_SCENARIOS: Dict[str, ScenarioSpec] = {}


# ----------------------------------------------------------------------
# Registration and lookup
# ----------------------------------------------------------------------
def register_fault_script(
        name: str, faults: Sequence[Fault],
        topology: Optional[SystemTopology] = None) -> FaultScript:
    """Register a named fault program, validating it immediately
    against ``topology``'s device roster (the paper topology by
    default)."""
    if name in _FAULT_SCRIPTS:
        raise ValueError(f"fault script {name!r} already registered")
    script = FaultScript(list(faults))
    topo = topology if topology is not None else paper_topology()
    script.validate_roster(topo.sensor_node_ids())
    _FAULT_SCRIPTS[name] = script
    return script


def get_fault_script(name: str) -> FaultScript:
    try:
        return _FAULT_SCRIPTS[name]
    except KeyError:
        raise KeyError(
            f"unknown fault script {name!r}; known: "
            f"{', '.join(fault_script_names()) or '(none)'}") from None


def fault_script_names() -> List[str]:
    return sorted(_FAULT_SCRIPTS)


def register_scenario(spec: ScenarioSpec) -> ScenarioSpec:
    """Register a spec under its own name; the name must be fresh and
    any referenced fault script must already be registered."""
    if spec.name in _SCENARIOS:
        raise ValueError(f"scenario {spec.name!r} already registered")
    if spec.fault_script != "none":
        get_fault_script(spec.fault_script)
    _SCENARIOS[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: "
            f"{', '.join(scenario_names())}") from None


def scenario_names() -> List[str]:
    return sorted(_SCENARIOS)


def describe_scenario(name: str) -> str:
    return get_scenario(name).describe()


# ----------------------------------------------------------------------
# Campaign cell fault programs (shared with repro.workloads.campaign)
# ----------------------------------------------------------------------
def quick_cell_faults(
        onset_s: float = 1800.0,
        clear_s: float = 2100.0) -> List[Tuple[str, Tuple[Fault, ...]]]:
    """The fast ≥8-cell matrix behind ``repro campaign --quick``.

    Covers every fault class, both severities of the jam, and two
    compound programs — including the humidity blackout that must latch
    the supervisor's conservative mode.
    """
    return [
        ("stuck-high", (
            SensorStuck(onset_s, "bt-room-temp-0", 35.0, until=clear_s),)),
        ("stuck-low", (
            SensorStuck(onset_s, "bt-room-temp-1", 15.0, until=clear_s),)),
        ("drift-humidity", (
            SensorDrift(onset_s, "bt-room-hum-0", 20.0, until=clear_s),)),
        ("drift-temp", (
            SensorDrift(onset_s, "bt-room-temp-2", 3.0, until=clear_s),)),
        ("crash-room-temp", (
            NodeCrash(onset_s, "bt-room-temp-3"),)),
        ("crash-ceil-hum", (
            NodeCrash(onset_s, "bt-ceil-hum-0"),)),
        ("jam-light", (
            ChannelJam(onset_s, onset_s + 300.0, duty=0.3),)),
        ("jam-heavy", (
            ChannelJam(onset_s, onset_s + 300.0, duty=0.9),)),
        ("compound-crash-jam", (
            NodeCrash(onset_s, "bt-room-hum-2"),
            ChannelJam(clear_s, clear_s + 180.0, duty=0.9))),
        ("compound-hum-blackout", (
            NodeCrash(onset_s, "bt-ceil-hum-1"),
            NodeCrash(onset_s, "bt-room-hum-1"))),
    ]


def full_cell_faults(
        onsets_s: Tuple[float, ...] = (1800.0, 2400.0),
        stuck_values: Tuple[float, ...] = (15.0, 35.0),
        drift_offsets: Tuple[float, ...] = (3.0, 10.0),
        jam_duties: Tuple[float, ...] = (0.3, 0.9),
        fault_duration_s: float = 600.0
) -> List[Tuple[str, Tuple[Fault, ...]]]:
    """Severity x onset sweep of every fault class, plus compounds."""
    cells: List[Tuple[str, Tuple[Fault, ...]]] = []
    for onset in onsets_s:
        clear = onset + fault_duration_s
        for value in stuck_values:
            cells.append((f"stuck-{value:g}@{onset:g}s", (
                SensorStuck(onset, "bt-room-temp-0", value, until=clear),)))
        for offset in drift_offsets:
            cells.append((f"drift-{offset:+g}@{onset:g}s", (
                SensorDrift(onset, "bt-room-hum-0", offset, until=clear),)))
        for device in ("bt-room-temp-3", "bt-ceil-hum-0"):
            cells.append((f"crash-{device}@{onset:g}s",
                          (NodeCrash(onset, device),)))
        for duty in jam_duties:
            cells.append((f"jam-{duty:.0%}@{onset:g}s", (
                ChannelJam(onset, clear, duty=duty),)))
        cells.append((f"compound-blackout@{onset:g}s", (
            NodeCrash(onset, "bt-ceil-hum-1"),
            NodeCrash(onset, "bt-room-hum-1"))))
        cells.append((f"compound-stuck-jam@{onset:g}s", (
            SensorStuck(onset, "bt-room-temp-0", 35.0, until=clear),
            ChannelJam(onset, onset + 300.0, duty=0.9))))
    return cells


# ----------------------------------------------------------------------
# The roster
# ----------------------------------------------------------------------
def _register_all() -> None:
    paper_config = BubbleZeroConfig(seed=7)

    register_scenario(ScenarioSpec(
        name="paper-va",
        description="§V-A temperature pulldown with the 14:05/14:25 "
                    "door events (Fig. 9/10)",
        config=paper_config,
        script="paper-phase-two",
        run_minutes=105.0,
        warmup_minutes=30.0))

    register_scenario(ScenarioSpec(
        name="paper-vc",
        description="§V-C five-hour network trial: BT-ADPT under "
                    "periodic door/window disturbances (Fig. 13/14)",
        config=paper_config,
        script="periodic-disturbance",
        run_minutes=300.0,
        warmup_minutes=30.0))

    register_scenario(ScenarioSpec(
        name="steady-state",
        description="disturbance-free pulldown at the paper's seed",
        config=paper_config,
        run_minutes=105.0,
        warmup_minutes=30.0))

    register_scenario(ScenarioSpec(
        name="paper-cop",
        description="steady-state COP measurement window (Fig. 11): "
                    "40 min pulldown, then a 20 min metered window",
        config=paper_config,
        run_minutes=60.0))

    for mode in ("adaptive", "fixed"):
        register_scenario(ScenarioSpec(
            name=f"lifetime-{mode}",
            description=f"battery-life projection under the {mode} "
                        "transmission scheme (Fig. 15)",
            config=BubbleZeroConfig(
                seed=7, network=NetworkConfig(bt_mode=mode)),
            script="periodic-disturbance",
            run_minutes=120.0))

    register_scenario(ScenarioSpec(
        name="golden-hvac-va",
        description="truncated §V-A trial behind the committed "
                    "hvac_va golden fingerprint",
        config=paper_config,
        script="paper-phase-two",
        run_minutes=75.0))

    register_scenario(ScenarioSpec(
        name="golden-network-vc",
        description="truncated §V-C trial behind the committed "
                    "network_vc golden fingerprint",
        config=BubbleZeroConfig(
            seed=7, network=NetworkConfig(bt_mode="adaptive")),
        script="periodic-disturbance",
        run_minutes=75.0))

    register_scenario(ScenarioSpec(
        name="campaign-baseline",
        description="fault-free reference run every campaign cell is "
                    "scored against",
        config=paper_config,
        run_minutes=45.0,
        warmup_minutes=30.0))

    for cell_name, faults in quick_cell_faults():
        register_fault_script(f"quick/{cell_name}", faults)
        register_scenario(ScenarioSpec(
            name=f"campaign/quick/{cell_name}",
            description="quick-matrix campaign cell",
            config=paper_config,
            fault_script=f"quick/{cell_name}",
            run_minutes=45.0,
            warmup_minutes=30.0))
    for cell_name, faults in full_cell_faults():
        register_fault_script(f"full/{cell_name}", faults)
        register_scenario(ScenarioSpec(
            name=f"campaign/full/{cell_name}",
            description="full-matrix campaign cell",
            config=paper_config,
            fault_script=f"full/{cell_name}",
            run_minutes=60.0,
            warmup_minutes=30.0))

    register_scenario(ScenarioSpec(
        name="sweep-default",
        description="per-seed replicate shape behind `repro sweep` "
                    "(the seed is replaced per replicate)",
        config=BubbleZeroConfig(seed=1),
        run_minutes=105.0,
        warmup_minutes=30.0))

    register_scenario(ScenarioSpec(
        name="tropical-day",
        description="paper layout under the sinusoidal tropical "
                    "weather model instead of constant design-day air",
        config=paper_config,
        weather="tropical",
        run_minutes=105.0,
        warmup_minutes=30.0))

    # Scaling demonstration: a whole 8-zone floor is one declaration.
    register_scenario(ScenarioSpec(
        name="eight-zone",
        description="8-zone (2x4 grid) floor built from grid_topology "
                    "— the N-zone scaling demonstration",
        config=paper_config,
        topology=grid_topology(8, cols=4),
        run_minutes=30.0))

    # Direct-mode grid trials behind the vectorized-core scaling bench
    # (`repro bench --grid`).  Tropical weather makes the seed reach
    # the physics, so replicated seeds produce distinct trajectories
    # even without the network stack's sensor-noise RNG.
    # The 512/1024-zone entries opt into the structured eigh solver
    # (config.physics_solver): dense inv/eig/inv on a (3, n, n) system
    # at those sizes dominates the run, while the symmetrised solver
    # keeps the factorisation tractable at the cost of roundoff-level
    # divergence from the dense reference oracle.
    for zones, cols, solver in ((4, 2, "dense"), (8, 4, "dense"),
                                (32, 8, "dense"), (128, 16, "dense"),
                                (512, 16, "structured"),
                                (1024, 32, "structured")):
        tag = ("vector-core scaling trial" if solver == "dense"
               else "large-grid structured-solver trial")
        register_scenario(ScenarioSpec(
            name=f"grid-{zones}",
            description=f"{zones}-zone direct-control grid under "
                        f"tropical weather ({tag})",
            config=BubbleZeroConfig(
                seed=7, network=NetworkConfig(enabled=False),
                physics_solver=solver),
            topology=grid_topology(zones, cols=cols),
            weather="tropical",
            run_minutes=10.0))

    # Chaos endurance bases (repro.workloads.chaos).  Unlike grid-*,
    # the network stack stays enabled — the hazard process addresses bt
    # sensor nodes and jams the shared channel, neither of which exists
    # in direct mode.  Run length and warmup are replaced per
    # ChaosConfig; the registered horizons are only the defaults.
    register_scenario(ScenarioSpec(
        name="chaos-paper",
        description="paper 4-zone layout under the seeded hazard "
                    "process (48 h endurance default)",
        config=paper_config,
        run_minutes=2880.0,
        warmup_minutes=30.0))

    for zones, cols in ((8, 4), (32, 8)):
        register_scenario(ScenarioSpec(
            name=f"chaos-grid-{zones}",
            description=f"{zones}-zone network-mode grid under "
                        "tropical weather for chaos endurance sweeps",
            config=paper_config,
            topology=grid_topology(zones, cols=cols),
            weather="tropical",
            run_minutes=2880.0,
            warmup_minutes=30.0))

    register_scenario(ScenarioSpec(
        name="chaos-quick",
        description="short chaos base behind the CI smoke and the "
                    "serial-vs-pooled byte-identity tests",
        config=paper_config,
        run_minutes=30.0,
        warmup_minutes=5.0))

    # A frozen 20-minute synthesized schedule behind the chaos golden,
    # registered (and thus roster-validated) like every other fault
    # program so the golden regenerates through the registry alone.
    register_fault_script(
        "chaos/quick",
        synthesize_faults(paper_topology(), quick_hazard(), seed=7,
                          horizon_s=1200.0).faults)
    register_scenario(ScenarioSpec(
        name="golden-chaos-quick",
        description="20-minute quick-cell chaos run behind the "
                    "committed chaos_quick golden fingerprint and "
                    "chaos_slo golden report",
        config=paper_config,
        fault_script="chaos/quick",
        run_minutes=20.0,
        warmup_minutes=5.0))

    # Controller bake-off cells: every registered control stack crossed
    # with the paper lab and the 8/32-zone grids, network mode, so the
    # comparison includes each stack's real channel load (the consensus
    # stack's zone-to-zone frames are part of its cost).  Horizons are
    # defaults; BakeoffConfig replaces run length and seed per run.
    from repro.control.policy import controller_names
    for ctrl in controller_names():
        register_scenario(ScenarioSpec(
            name=f"bakeoff/{ctrl}/paper",
            description=f"{ctrl} stack on the paper 4-zone lab "
                        "(bake-off cell)",
            config=paper_config,
            controller=ctrl,
            run_minutes=45.0,
            warmup_minutes=10.0))
        for zones, cols in ((8, 4), (32, 8)):
            register_scenario(ScenarioSpec(
                name=f"bakeoff/{ctrl}/{zones}z",
                description=f"{ctrl} stack on the {zones}-zone "
                            "network-mode grid under tropical weather "
                            "(bake-off cell)",
                config=paper_config,
                topology=grid_topology(zones, cols=cols),
                weather="tropical",
                controller=ctrl,
                run_minutes=45.0,
                warmup_minutes=10.0))


_register_all()
