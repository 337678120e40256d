"""Configuration of a BubbleZERO run."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.clock import parse_clock


@dataclass(frozen=True)
class NetworkConfig:
    """Wireless-layer configuration."""

    enabled: bool = True                 # False => wired/direct control
    bt_mode: str = "adaptive"            # "adaptive" (BT-ADPT) or "fixed"
    ac_schedule_adaptation: bool = True  # AC-device desynchronisation
    loss_probability: float = 0.02
    histogram_slots: int = 40            # the paper's default N
    track_oracle: bool = True            # score decisions vs exact clustering

    def __post_init__(self) -> None:
        if self.bt_mode not in ("adaptive", "fixed"):
            raise ValueError(f"unknown bt_mode: {self.bt_mode!r}")
        if not (0 <= self.loss_probability < 1):
            raise ValueError("loss probability must be in [0, 1)")


@dataclass(frozen=True)
class ComfortConfig:
    """Occupant targets (the paper's: 25 degC, 18 degC dew point)."""

    preferred_temp_c: float = 25.0
    preferred_rh_percent: float = 65.2   # yields ~18.0 degC dew at 25 degC
    co2_target_ppm: float = 800.0


@dataclass(frozen=True)
class OutdoorConfig:
    """The paper's afternoon: 28.9 degC dry bulb, 27.4 degC dew point."""

    temp_c: float = 28.9
    dew_point_c: float = 27.4


@dataclass(frozen=True)
class BubbleZeroConfig:
    """Everything a reproducible run needs."""

    seed: int = 1
    start_time_s: float = field(default_factory=lambda: parse_clock("13:00"))
    physics_dt_s: float = 1.0
    record_period_s: float = 10.0
    # Integrate event-free gaps between physics ticks in one closed-form
    # step of the room's RC network instead of dispatching one Euler
    # tick per second (see DESIGN.md, "Performance architecture").  The
    # scheduler only engages it when no other event is queued inside the
    # gap, so trajectories match plain 1 Hz stepping within the
    # documented tolerance; set False to force the reference behaviour.
    physics_macro_step: bool = True
    # Advance the hydronic, airside and tank components through the
    # fused gap kernel (repro.physics.vector) instead of the per-object
    # loop.  Both share the room's one zone-state store and Euler
    # balance; the kernel repeats every floating-point expression of
    # the per-object path, so this only changes speed.  False selects
    # that path as the reference oracle of the equivalence tests (no
    # CLI option sets it).
    physics_vector: bool = True
    # Macro-gap eigensolver: "dense" is the reference oracle (general
    # inv/eig/inv, bit-pinned by every golden); "structured" exploits
    # the coupling matrix's symmetry under the capacity scaling
    # (symmetrised eigh — real arithmetic, ~O(10x) faster factorisation)
    # and is what makes 512/1024-zone grids tractable.  The two agree
    # only to roundoff, so "structured" is opt-in per scenario and the
    # registered large-grid scenarios are its only default users.
    physics_solver: str = "dense"
    network: NetworkConfig = NetworkConfig()
    comfort: ComfortConfig = ComfortConfig()
    outdoor: OutdoorConfig = OutdoorConfig()

    def __post_init__(self) -> None:
        if self.physics_dt_s <= 0:
            raise ValueError("physics step must be positive")
        if self.record_period_s <= 0:
            raise ValueError("record period must be positive")
        if self.physics_solver not in ("dense", "structured"):
            raise ValueError(
                f"unknown physics_solver {self.physics_solver!r}; "
                "expected 'dense' or 'structured'")
