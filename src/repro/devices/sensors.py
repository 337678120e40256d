"""Sensor models with datasheet noise and quantisation.

Each sensor wraps a ``measure`` callable returning the physical truth
(from the room/hydronics models) and corrupts it the way the real part
does: a fixed calibration offset drawn once per instance, white reading
noise, and ADC/protocol quantisation.

Instruments reproduced from the paper:

* **ADT7410** digital temperature sensor — +/-0.5 degC accuracy,
  0.0625 degC resolution (13-bit), embedded in the water pipes;
* **SHT75** temperature/humidity sensor — +/-0.3 degC / +/-1.8 %RH,
  deployed in the room, under the ceiling panels and at airbox outlets;
* **VISION-2000** flow sensor — "outputs a series of pulses and the
  pulse frequency is proportional to its measured flow rate";
* NDIR **CO2** sensor on the CO2flaps — +/-30 ppm typical.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.rng import RngRegistry


class SensorModel:
    """Generic noisy, quantised, offset sensor."""

    def __init__(self, name: str, measure: Callable[[], float],
                 rng: RngRegistry, noise_std: float = 0.0,
                 offset_std: float = 0.0, quantum: float = 0.0,
                 lower_limit: float = float("-inf"),
                 upper_limit: float = float("inf")) -> None:
        self.name = name
        self._measure = measure
        self._rng = rng
        self.noise_std = noise_std
        self.quantum = quantum
        self.lower_limit = lower_limit
        self.upper_limit = upper_limit
        # Per-part calibration offset: drawn once, constant for life.
        self._offset = (rng.normal(f"sensor-offset/{name}", 0.0, offset_std)
                        if offset_std > 0 else 0.0)
        # The noise stream is hit on every reading; cache it and serve
        # draws from a prefetched block of standard normals — one
        # vectorised call per 256 readings, same sequence as per-read
        # scalar draws (scaling by noise_std commutes with the draw).
        self._noise_stream = (rng.stream(f"sensor-noise/{name}")
                              if noise_std > 0 else None)
        self._noise_buffer: list = []
        self._noise_index = 0
        self.readings_taken = 0
        # Fault-injection state (see repro.workloads.faults).
        self._stuck_at: float = float("nan")
        self._fault_offset = 0.0

    @property
    def is_stuck(self) -> bool:
        return self._stuck_at == self._stuck_at  # not NaN

    def fail_stuck(self, value: float) -> None:
        """Fault injection: the sensor reports ``value`` forever."""
        self._stuck_at = float(value)

    def fail_drift(self, offset: float) -> None:
        """Fault injection: an additional calibration drift."""
        self._fault_offset = float(offset)

    def recover(self) -> None:
        """Clear injected faults (a maintenance visit)."""
        self._stuck_at = float("nan")
        self._fault_offset = 0.0

    def read(self) -> float:
        """Take one corrupted reading of the physical truth."""
        stuck = self._stuck_at
        if stuck == stuck:  # inlined is_stuck (NaN when healthy)
            self.readings_taken += 1
            return stuck
        value = self._measure() + self._offset + self._fault_offset
        if self.noise_std > 0:
            i = self._noise_index
            if i >= len(self._noise_buffer):
                self._noise_buffer = (
                    self._noise_stream.standard_normal(256).tolist())
                i = 0
            self._noise_index = i + 1
            # 0.0 + std * z is bit-identical to normal(0.0, std).
            value += self.noise_std * self._noise_buffer[i]
        if self.quantum > 0:
            value = round(value / self.quantum) * self.quantum
        value = min(max(value, self.lower_limit), self.upper_limit)
        self.readings_taken += 1
        return value


class ADT7410TemperatureSensor(SensorModel):
    """Pipe-water temperature sensor (paper §III-B: +/-0.5 degC)."""

    def __init__(self, name: str, measure: Callable[[], float],
                 rng: RngRegistry) -> None:
        super().__init__(name, measure, rng,
                         noise_std=0.05, offset_std=0.17, quantum=0.0625,
                         lower_limit=-55.0, upper_limit=150.0)


class SHT75Sensor:
    """Combined temperature/humidity sensor (two correlated channels)."""

    def __init__(self, name: str, measure_temp: Callable[[], float],
                 measure_rh: Callable[[], float], rng: RngRegistry) -> None:
        self.name = name
        self.temperature = SensorModel(
            f"{name}/T", measure_temp, rng,
            noise_std=0.04, offset_std=0.10, quantum=0.01,
            lower_limit=-40.0, upper_limit=123.8)
        self.humidity = SensorModel(
            f"{name}/RH", measure_rh, rng,
            noise_std=0.3, offset_std=0.6, quantum=0.05,
            lower_limit=0.1, upper_limit=100.0)

    def read_temperature(self) -> float:
        return self.temperature.read()

    def read_humidity(self) -> float:
        return self.humidity.read()


class Vision2000FlowSensor(SensorModel):
    """Pulse-output water flow sensor.

    The part emits pulses at a frequency proportional to flow; counting
    pulses over a gate interval quantises the reading to one pulse,
    i.e. ``1 / (pulses_per_liter * gate_s)`` L/s.
    """

    PULSES_PER_LITER = 450.0

    def __init__(self, name: str, measure: Callable[[], float],
                 rng: RngRegistry, gate_s: float = 1.0) -> None:
        if gate_s <= 0:
            raise ValueError("gate interval must be positive")
        quantum = 1.0 / (self.PULSES_PER_LITER * gate_s)
        super().__init__(name, measure, rng,
                         noise_std=0.5 * quantum, offset_std=0.0,
                         quantum=quantum, lower_limit=0.0)
        self.gate_s = gate_s

    def pulse_count(self) -> int:
        """Raw pulse count over one gate interval."""
        return int(round(self.read() * self.PULSES_PER_LITER * self.gate_s))


class CO2Sensor(SensorModel):
    """NDIR CO2 concentration sensor on the CO2flap."""

    def __init__(self, name: str, measure: Callable[[], float],
                 rng: RngRegistry) -> None:
        super().__init__(name, measure, rng,
                         noise_std=8.0, offset_std=12.0, quantum=1.0,
                         lower_limit=0.0, upper_limit=10_000.0)
