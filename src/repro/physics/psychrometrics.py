"""Psychrometric relations used throughout BubbleZERO.

The paper computes the dew point with the Magnus approximation

    T_dew(T, H) = a * [ln(H/100) + bT/(a+T)] / [b - ln(H/100) - bT/(a+T)]

with a = 243.12 and b = 17.62 (paper §III-B).  We implement exactly that
formula plus its inverse and the standard moist-air relations (saturation
vapour pressure, humidity ratio, enthalpy) the airbox coil model and the
COP accounting need.

All temperatures are in degrees Celsius unless a name says otherwise;
relative humidity is in percent (0–100]; pressures in Pa; humidity ratio
in kg water vapour per kg dry air.

The transcendental relations (anything with an ``exp``/``log``) are
memoized behind quantised LRU caches: inputs are rounded to 12 decimal
places to form the cache key and the result is computed *from the
rounded key*, so a given return value depends only on the key, never on
cache state or call order — runs stay deterministic.  The rounding
perturbs inputs by at most 5e-13, far below sensor quantisation (0.01)
and the 1e-9 equivalence tolerance asserted in
``tests/test_perf_equivalence.py``.  ``configure_cache(False)`` restores
the exact unrounded path for parity checks.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# Magnus coefficients, as given in the paper.
MAGNUS_A = 243.12  # degC
MAGNUS_B = 17.62   # dimensionless

# Standard atmospheric pressure (Singapore is at sea level).
ATM_PRESSURE = 101325.0  # Pa

# Specific heats and latent heat for moist-air enthalpy (J/kg/K, J/kg).
CP_DRY_AIR = 1006.0
CP_WATER_VAPOR = 1860.0
LATENT_HEAT_VAPORIZATION = 2.501e6

# Ratio of molecular weights (water / dry air).
EPSILON = 0.62198

_MIN_RH = 1e-6   # RH of exactly 0 is outside the Magnus formula's domain

# Quantised-key memoization (see module docstring).  12 decimals keeps
# the key perturbation ~5e-13 while collapsing the near-identical inputs
# the control boards produce (sensor readings quantised at 0.01).
_CACHE_ENABLED = True
_KEY_DECIMALS = 12
_CACHE_SIZE = 4096


class PsychrometricsError(ValueError):
    """Raised for physically meaningless inputs (e.g. RH > 100%)."""


def configure_cache(enabled: bool) -> None:
    """Enable or disable the quantised memoization layer.

    Disabling routes every call through the exact, unrounded formulas —
    the bit-for-bit parity path the equivalence tests compare against.
    Re-enabling does not clear previously cached entries (they remain
    valid: each maps a rounded key to the value computed from it).
    """
    global _CACHE_ENABLED
    _CACHE_ENABLED = bool(enabled)


def cache_clear() -> None:
    """Drop all memoized entries (useful for benchmarking cold starts)."""
    for fn in (_dew_point_cached,
               _humidity_ratio_cached, _humidity_ratio_from_dew_point_cached,
               _dew_point_from_humidity_ratio_cached,
               _relative_humidity_from_ratio_cached,
               _relative_humidity_from_dew_point_cached):
        fn.cache_clear()


def cache_stats() -> dict:
    """Like :func:`cache_info`, with a derived ``hit_rate`` per relation.

    ``hit_rate`` is hits / (hits + misses), or 0.0 before any lookup —
    the number the benchmark harness records so cache regressions show
    up in BENCH comparisons.
    """
    stats = {}
    for name, info in cache_info().items():
        lookups = info["hits"] + info["misses"]
        stats[name] = dict(info)
        stats[name]["hit_rate"] = (info["hits"] / lookups if lookups
                                   else 0.0)
    return stats


def cache_info() -> dict:
    """Hit/miss statistics of every memoized relation, keyed by name."""
    return {
        "dew_point": _dew_point_cached.cache_info()._asdict(),
        "humidity_ratio": _humidity_ratio_cached.cache_info()._asdict(),
        "humidity_ratio_from_dew_point":
            _humidity_ratio_from_dew_point_cached.cache_info()._asdict(),
        "dew_point_from_humidity_ratio":
            _dew_point_from_humidity_ratio_cached.cache_info()._asdict(),
        "relative_humidity_from_ratio":
            _relative_humidity_from_ratio_cached.cache_info()._asdict(),
        "relative_humidity_from_dew_point":
            _relative_humidity_from_dew_point_cached.cache_info()._asdict(),
    }


def _gamma(temp_c: float, rh_percent: float) -> float:
    """Magnus auxiliary term ln(H/100) + bT/(a+T)."""
    if rh_percent <= 0:
        raise PsychrometricsError(f"relative humidity must be > 0, got {rh_percent}")
    if rh_percent > 100.0 + 1e-9:
        raise PsychrometricsError(f"relative humidity must be <= 100, got {rh_percent}")
    if temp_c <= -MAGNUS_A:
        raise PsychrometricsError(
            f"temperature {temp_c} degC outside Magnus formula domain")
    rh = min(rh_percent, 100.0)
    return math.log(rh / 100.0) + (MAGNUS_B * temp_c) / (MAGNUS_A + temp_c)


def _dew_point_exact(temp_c: float, rh_percent: float) -> float:
    gamma = _gamma(temp_c, rh_percent)
    return MAGNUS_A * gamma / (MAGNUS_B - gamma)


_dew_point_cached = lru_cache(maxsize=_CACHE_SIZE)(_dew_point_exact)


def dew_point(temp_c: float, rh_percent: float) -> float:
    """Dew point of air at ``temp_c`` degC and ``rh_percent`` %RH.

    This is the exact formula from paper §III-B.  At 100 %RH the dew
    point equals the dry-bulb temperature.

    >>> round(dew_point(25.0, 100.0), 6)
    25.0
    >>> dew_point(25.0, 50.0) < 25.0
    True
    """
    if _CACHE_ENABLED:
        return _dew_point_cached(round(temp_c, _KEY_DECIMALS),
                                 round(rh_percent, _KEY_DECIMALS))
    return _dew_point_exact(temp_c, rh_percent)


def _relative_humidity_from_dew_point_exact(temp_c: float,
                                            dew_c: float) -> float:
    if dew_c > temp_c + 1e-9:
        raise PsychrometricsError(
            f"dew point {dew_c} cannot exceed dry-bulb {temp_c}")
    dew_c = min(dew_c, temp_c)
    # gamma_dew = b*Td/(a+Td); solve ln(H/100) = gamma_dew - b*T/(a+T)
    gamma_dew = MAGNUS_B * dew_c / (MAGNUS_A + dew_c)
    log_h = gamma_dew - (MAGNUS_B * temp_c) / (MAGNUS_A + temp_c)
    rh = 100.0 * math.exp(log_h)
    return max(_MIN_RH, min(rh, 100.0))


_relative_humidity_from_dew_point_cached = (
    lru_cache(maxsize=_CACHE_SIZE)(_relative_humidity_from_dew_point_exact))


def relative_humidity_from_dew_point(temp_c: float, dew_c: float) -> float:
    """Invert :func:`dew_point`: %RH such that dew_point(T, RH) == dew_c.

    >>> rh = relative_humidity_from_dew_point(25.0, 18.0)
    >>> round(dew_point(25.0, rh), 6)
    18.0
    """
    if _CACHE_ENABLED:
        return _relative_humidity_from_dew_point_cached(
            round(temp_c, _KEY_DECIMALS), round(dew_c, _KEY_DECIMALS))
    return _relative_humidity_from_dew_point_exact(temp_c, dew_c)


def _saturation_vapor_pressure_exact(temp_c: float) -> float:
    if temp_c <= -MAGNUS_A:
        raise PsychrometricsError(
            f"temperature {temp_c} degC outside Magnus formula domain")
    return 611.2 * math.exp(MAGNUS_B * temp_c / (MAGNUS_A + temp_c))


def saturation_vapor_pressure(temp_c: float) -> float:
    """Saturation vapour pressure over liquid water, Pa (Magnus form).

    Uses the same (a, b) coefficients as the paper's dew-point formula so
    the two are mutually consistent: 611.2 * exp(bT / (a+T)).

    Deliberately *not* memoized: every hot caller reaches it through a
    relation that is itself memoized (``humidity_ratio``) or through
    one-off analysis code, so its own LRU layer recorded zero hits in
    the BENCH_3 profile and only paid dict overhead.  The key
    quantisation is kept so dropping the cache did not move a single
    bit (the memo never changed values, only recall).
    """
    if _CACHE_ENABLED:
        return _saturation_vapor_pressure_exact(round(temp_c, _KEY_DECIMALS))
    return _saturation_vapor_pressure_exact(temp_c)


def vapor_pressure(temp_c: float, rh_percent: float) -> float:
    """Partial pressure of water vapour, Pa."""
    if rh_percent < 0 or rh_percent > 100.0 + 1e-9:
        raise PsychrometricsError(f"relative humidity out of range: {rh_percent}")
    return saturation_vapor_pressure(temp_c) * min(rh_percent, 100.0) / 100.0


def _humidity_ratio_exact(temp_c: float, rh_percent: float,
                          pressure_pa: float = ATM_PRESSURE) -> float:
    p_vap = vapor_pressure(temp_c, rh_percent)
    if p_vap >= pressure_pa:
        raise PsychrometricsError("vapour pressure exceeds total pressure")
    return EPSILON * p_vap / (pressure_pa - p_vap)


_humidity_ratio_cached = lru_cache(maxsize=_CACHE_SIZE)(_humidity_ratio_exact)


def humidity_ratio(temp_c: float, rh_percent: float,
                   pressure_pa: float = ATM_PRESSURE) -> float:
    """Humidity ratio w (kg vapour / kg dry air) at T, RH."""
    if _CACHE_ENABLED:
        return _humidity_ratio_cached(round(temp_c, _KEY_DECIMALS),
                                      round(rh_percent, _KEY_DECIMALS),
                                      pressure_pa)
    return _humidity_ratio_exact(temp_c, rh_percent, pressure_pa)


def _humidity_ratio_from_dew_point_exact(
        dew_c: float, pressure_pa: float = ATM_PRESSURE) -> float:
    p_vap = _saturation_vapor_pressure_exact(dew_c)
    if p_vap >= pressure_pa:
        raise PsychrometricsError("vapour pressure exceeds total pressure")
    return EPSILON * p_vap / (pressure_pa - p_vap)


_humidity_ratio_from_dew_point_cached = (
    lru_cache(maxsize=_CACHE_SIZE)(_humidity_ratio_from_dew_point_exact))


def humidity_ratio_from_dew_point(dew_c: float,
                                  pressure_pa: float = ATM_PRESSURE) -> float:
    """Humidity ratio of air whose dew point is ``dew_c``.

    The dew point uniquely determines the vapour partial pressure (it is
    the temperature at which that pressure saturates), hence w.
    """
    if _CACHE_ENABLED:
        return _humidity_ratio_from_dew_point_cached(
            round(dew_c, _KEY_DECIMALS), pressure_pa)
    return _humidity_ratio_from_dew_point_exact(dew_c, pressure_pa)


def _dew_point_from_humidity_ratio_exact(
        w: float, pressure_pa: float = ATM_PRESSURE) -> float:
    if w <= 0:
        raise PsychrometricsError(f"humidity ratio must be positive, got {w}")
    p_vap = pressure_pa * w / (EPSILON + w)
    # Invert p = 611.2 * exp(b*T/(a+T))  =>  T = a*ln(p/611.2)/(b - ln(p/611.2))
    log_ratio = math.log(p_vap / 611.2)
    if log_ratio >= MAGNUS_B:
        raise PsychrometricsError(f"humidity ratio {w} out of Magnus domain")
    return MAGNUS_A * log_ratio / (MAGNUS_B - log_ratio)


_dew_point_from_humidity_ratio_cached = (
    lru_cache(maxsize=_CACHE_SIZE)(_dew_point_from_humidity_ratio_exact))


def dew_point_from_humidity_ratio(w: float,
                                  pressure_pa: float = ATM_PRESSURE) -> float:
    """Invert :func:`humidity_ratio_from_dew_point`.

    >>> w = humidity_ratio_from_dew_point(18.0)
    >>> round(dew_point_from_humidity_ratio(w), 6)
    18.0
    """
    if _CACHE_ENABLED:
        # Humidity ratios sit around 0.02, so 12 decimals is a relative
        # quantisation of ~5e-11 — still far below the 1e-9 tolerance.
        return _dew_point_from_humidity_ratio_cached(
            round(w, _KEY_DECIMALS + 2), pressure_pa)
    return _dew_point_from_humidity_ratio_exact(w, pressure_pa)


def _relative_humidity_from_ratio_exact(
        temp_c: float, w: float,
        pressure_pa: float = ATM_PRESSURE) -> float:
    if w < 0:
        raise PsychrometricsError(f"humidity ratio must be >= 0, got {w}")
    if w == 0:
        return _MIN_RH
    p_vap = pressure_pa * w / (EPSILON + w)
    rh = 100.0 * p_vap / _saturation_vapor_pressure_exact(temp_c)
    return max(_MIN_RH, min(rh, 100.0))


_relative_humidity_from_ratio_cached = (
    lru_cache(maxsize=_CACHE_SIZE)(_relative_humidity_from_ratio_exact))


def relative_humidity_from_ratio(temp_c: float, w: float,
                                 pressure_pa: float = ATM_PRESSURE) -> float:
    """%RH of air at ``temp_c`` with humidity ratio ``w``."""
    if _CACHE_ENABLED:
        return _relative_humidity_from_ratio_cached(
            round(temp_c, _KEY_DECIMALS), round(w, _KEY_DECIMALS + 2),
            pressure_pa)
    return _relative_humidity_from_ratio_exact(temp_c, w, pressure_pa)


def moist_air_enthalpy(temp_c: float, w: float) -> float:
    """Specific enthalpy of moist air, J per kg of dry air.

    h = cp_a * T + w * (L + cp_v * T), the standard psychrometric form
    with the 0 degC dry-air reference.
    """
    if w < 0:
        raise PsychrometricsError(f"humidity ratio must be >= 0, got {w}")
    return CP_DRY_AIR * temp_c + w * (LATENT_HEAT_VAPORIZATION
                                      + CP_WATER_VAPOR * temp_c)


def condensation_occurs(surface_temp_c: float, air_temp_c: float,
                        air_rh_percent: float) -> bool:
    """True when a surface at ``surface_temp_c`` would condense moisture
    out of air at the given state — the central hazard the radiant
    cooling module must avoid (paper §III-B)."""
    return surface_temp_c < dew_point(air_temp_c, air_rh_percent)


# ---------------------------------------------------------------------------
# Array-accepting variants
# ---------------------------------------------------------------------------
# These evaluate the exact formulas elementwise with numpy ufuncs.  They
# intentionally do NOT reproduce the scalar layer's memo-key rounding:
# np.round and Python's round() disagree in the last ulp for some values
# (see DESIGN.md §11), so emulating the quantisation would *add*
# divergence sources, not remove them.  Code that needs bit-for-bit
# agreement with the scalar path (the per-zone SoA kernel) calls the
# scalar functions, so no physics path calls these today.  They stay
# because the benchmark's psychrometrics timing seam resolves each of
# them by name and fails to install if one is missing.

def saturation_vapor_pressure_array(temp_c: np.ndarray) -> np.ndarray:
    """Elementwise :func:`saturation_vapor_pressure` (exact, unrounded)."""
    t = np.asarray(temp_c, dtype=np.float64)
    return 611.2 * np.exp(MAGNUS_B * t / (MAGNUS_A + t))


def dew_point_array(temp_c: np.ndarray,
                    rh_percent: np.ndarray) -> np.ndarray:
    """Elementwise Magnus dew point; RH is clipped into (0, 100]."""
    t = np.asarray(temp_c, dtype=np.float64)
    rh = np.clip(np.asarray(rh_percent, dtype=np.float64), _MIN_RH, 100.0)
    gamma = np.log(rh / 100.0) + (MAGNUS_B * t) / (MAGNUS_A + t)
    return MAGNUS_A * gamma / (MAGNUS_B - gamma)


def humidity_ratio_from_dew_point_array(
        dew_c: np.ndarray, pressure_pa: float = ATM_PRESSURE) -> np.ndarray:
    """Elementwise :func:`humidity_ratio_from_dew_point`."""
    p_vap = saturation_vapor_pressure_array(dew_c)
    return EPSILON * p_vap / (pressure_pa - p_vap)


def dew_point_from_humidity_ratio_array(
        w: np.ndarray, pressure_pa: float = ATM_PRESSURE) -> np.ndarray:
    """Elementwise :func:`dew_point_from_humidity_ratio` (w must be > 0)."""
    w = np.asarray(w, dtype=np.float64)
    p_vap = pressure_pa * w / (EPSILON + w)
    log_ratio = np.log(p_vap / 611.2)
    return MAGNUS_A * log_ratio / (MAGNUS_B - log_ratio)


def relative_humidity_from_ratio_array(
        temp_c: np.ndarray, w: np.ndarray,
        pressure_pa: float = ATM_PRESSURE) -> np.ndarray:
    """Elementwise :func:`relative_humidity_from_ratio`."""
    w = np.asarray(w, dtype=np.float64)
    p_vap = pressure_pa * w / (EPSILON + w)
    rh = 100.0 * p_vap / saturation_vapor_pressure_array(temp_c)
    return np.clip(rh, _MIN_RH, 100.0)


def moist_air_enthalpy_array(temp_c: np.ndarray,
                             w: np.ndarray) -> np.ndarray:
    """Elementwise :func:`moist_air_enthalpy`."""
    t = np.asarray(temp_c, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    return CP_DRY_AIR * t + w * (LATENT_HEAT_VAPORIZATION
                                 + CP_WATER_VAPOR * t)
