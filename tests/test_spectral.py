"""Spectral gap-solver cache: exactness, eviction, large-grid solver.

The process-wide eigendecomposition cache (:mod:`repro.physics.spectral`)
sits under every macro-gap solve — scalar rooms and the SoA kernel
both resolve through it.  Its contract is strict:
it stores *exact* decompositions keyed on the exact diagonal bytes, so
enabling, disabling, shrinking or thrashing the cache must never change
a trajectory by a single bit.  These tests pin that contract on grids
from 1 to 128 zones (both physics paths, observability on and off), on
every committed golden, and under hypothesis-driven eviction pressure;
they also pin the structured ``eigh`` solver that makes the 512/1024-zone
grids tractable against the dense reference oracle.
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis.fingerprint import (
    compare_fingerprints,
    discrete_log_hash,
    load_fingerprint,
    trajectory_fingerprint,
)
from repro.core.config import BubbleZeroConfig, NetworkConfig
from repro.core.system import BubbleZero
from repro.obs import create_observability
from repro.physics import spectral
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import prepare_run, run_scenario
from repro.scenarios.topology import grid_topology

DIRECT = NetworkConfig(enabled=False)


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Every test starts cold and leaves the defaults behind."""
    spectral.configure(enabled=True,
                       max_entries=spectral.DEFAULT_MAX_ENTRIES,
                       max_bytes=spectral.DEFAULT_MAX_BYTES)
    spectral.cache_clear()
    yield
    spectral.configure(enabled=True,
                       max_entries=spectral.DEFAULT_MAX_ENTRIES,
                       max_bytes=spectral.DEFAULT_MAX_BYTES)
    spectral.cache_clear()


def _grid_matrices(zones=32):
    spec = get_scenario(f"grid-{zones}")
    system, _ = prepare_run(spec)
    room = system.plant.room
    return room._macro_base, room._macro_scale


class TestCacheMechanics:
    def test_system_key_separates_structures(self):
        base, scale = _grid_matrices()
        key = spectral.system_key(base, scale)
        assert key == spectral.system_key(base, scale, "dense")
        assert key != spectral.system_key(base, scale, "structured")
        assert key != spectral.system_key(base * 1.5, scale)
        assert key != spectral.system_key(base, scale * 2.0)

    def test_unknown_solver_rejected(self):
        base, scale = _grid_matrices()
        with pytest.raises(ValueError):
            spectral.system_key(base, scale, "krylov")
        with pytest.raises(ValueError):
            spectral.decompose(base, scale, np.zeros(scale.shape),
                               "krylov")

    def test_hit_miss_counters(self):
        base, scale = _grid_matrices()
        key = spectral.system_key(base, scale)
        diag = np.full(scale.shape, 0.25)
        spectral.decomposition(key, diag, base, scale)
        spectral.decomposition(key, diag, base, scale)
        stats = spectral.cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert stats["entries"] == 1
        assert stats["bytes"] > 0
        assert stats["hit_rate"] == 0.5

    def test_cached_entry_is_the_exact_decomposition(self):
        base, scale = _grid_matrices()
        key = spectral.system_key(base, scale)
        diag = np.full(scale.shape, 0.25)
        cached = spectral.decomposition(key, diag, base, scale)
        fresh = spectral.decompose(base, scale, diag)
        for got, want in zip(cached, fresh):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_lru_eviction_under_entry_budget(self):
        base, scale = _grid_matrices(zones=4)
        key = spectral.system_key(base, scale)
        spectral.configure(max_entries=2)
        diags = [np.full(scale.shape, v) for v in (0.1, 0.2, 0.3)]
        for diag in diags:
            spectral.decomposition(key, diag, base, scale)
        stats = spectral.cache_stats()
        assert stats["entries"] == 2
        assert stats["evictions"] == 1
        # The oldest entry (0.1) was evicted; re-requesting it misses.
        spectral.decomposition(key, diags[0], base, scale)
        assert spectral.cache_stats()["misses"] == 4
        # ...but touching an entry protects it: 0.3 then insert a new
        # diag evicts 0.1 again (LRU head), not the refreshed 0.3.
        spectral.decomposition(key, diags[2], base, scale)
        spectral.decomposition(key, np.full(scale.shape, 0.4),
                               base, scale)
        assert spectral.decomposition(
            key, diags[2], base, scale) is not None
        assert spectral.cache_stats()["hits"] == 2

    def test_byte_budget_eviction(self):
        base, scale = _grid_matrices(zones=4)
        key = spectral.system_key(base, scale)
        first = spectral.decomposition(key, np.full(scale.shape, 0.1),
                                       base, scale)
        entry_bytes = sum(a.nbytes for a in first)
        # Budget fits one entry but not two: the second insert evicts
        # the first.
        spectral.configure(max_bytes=int(entry_bytes * 1.5))
        spectral.decomposition(key, np.full(scale.shape, 0.2),
                               base, scale)
        stats = spectral.cache_stats()
        assert stats["entries"] == 1
        assert stats["evictions"] == 1
        assert stats["bytes"] <= int(entry_bytes * 1.5)

    def test_configure_shrink_evicts_immediately(self):
        base, scale = _grid_matrices(zones=4)
        key = spectral.system_key(base, scale)
        for v in (0.1, 0.2, 0.3):
            spectral.decomposition(key, np.full(scale.shape, v),
                                   base, scale)
        assert spectral.cache_stats()["entries"] == 3
        spectral.configure(max_entries=1)
        assert spectral.cache_stats()["entries"] == 1

    def test_disabled_cache_stays_empty_but_correct(self):
        base, scale = _grid_matrices(zones=4)
        key = spectral.system_key(base, scale)
        diag = np.full(scale.shape, 0.25)
        spectral.configure(enabled=False)
        a = spectral.decomposition(key, diag, base, scale)
        b = spectral.decomposition(key, diag, base, scale)
        stats = spectral.cache_stats()
        assert stats["entries"] == 0
        assert stats["hits"] == 0
        assert stats["misses"] == 2
        for got, want in zip(a, b):
            assert got.tobytes() == want.tobytes()


class TestStructuredSolver:
    """The symmetrised ``eigh`` path against the dense oracle."""

    def test_agrees_with_dense_on_grid_matrices(self):
        base, scale = _grid_matrices(zones=32)
        diag = np.full(scale.shape, 0.3)
        dense = spectral.decompose(base, scale, diag, "dense")
        structured = spectral.decompose(base, scale, diag, "structured")
        # Same inverse (basis-independent) to roundoff...
        a_inv_d, a_inv_s = dense[0], structured[0]
        ref = np.abs(a_inv_d).max()
        assert np.abs(a_inv_d - a_inv_s).max() <= 1e-10 * ref
        # ...and the same propagated state for a gap.
        x0 = np.linspace(20.0, 30.0, diag.size).reshape(diag.shape)
        outs = []
        for a_inv, vals, vecs, vecs_inv in (dense, structured):
            y0 = vecs_inv @ x0[..., None].astype(vecs.dtype)
            out = ((vecs @ (np.exp(vals * 60.0)[..., None] * y0))
                   [..., 0]).real
            outs.append(out)
        assert np.allclose(outs[0], outs[1], rtol=1e-9, atol=1e-9)

    def test_structured_is_all_real(self):
        base, scale = _grid_matrices(zones=32)
        diag = np.full(scale.shape, 0.3)
        decomp = spectral.decompose(base, scale, diag, "structured")
        for array in decomp:
            assert not np.iscomplexobj(array)

    def test_structured_basis_inverts_exactly(self):
        """``vecs_inv`` is the closed-form inverse (no LAPACK inverse
        involved): the product is the identity to roundoff, and the
        ``eigh`` eigenvalues come out ascending and strictly negative
        (the room network is dissipative)."""
        base, scale = _grid_matrices(zones=32)
        diag = np.full(scale.shape, 0.3)
        _, vals, vecs, vecs_inv = spectral.decompose(
            base, scale, diag, "structured")
        eye = np.broadcast_to(np.eye(vals.shape[-1]), vecs.shape)
        assert np.allclose(vecs_inv @ vecs, eye, atol=1e-10)
        assert np.all(np.diff(vals, axis=-1) >= 0)
        assert np.all(vals < 0)

    def test_config_rejects_unknown_solver(self):
        with pytest.raises(ValueError):
            BubbleZeroConfig(physics_solver="krylov")

    def test_large_grid_scenarios_registered(self):
        for zones in (512, 1024):
            spec = get_scenario(f"grid-{zones}")
            assert spec.config.physics_solver == "structured"

    def test_structured_grid_run_completes(self):
        """A short structured-solver run on a mid-size grid stays close
        to the dense oracle (roundoff-level divergence, not drift)."""
        topology = grid_topology(32, cols=8)
        states = {}
        for solver in ("dense", "structured"):
            config = BubbleZeroConfig(seed=7, network=DIRECT,
                                      physics_solver=solver)
            system = BubbleZero(config, topology=topology)
            system.start()
            system.run(minutes=10.0)
            system.finalize()
            states[solver] = np.array(
                [s.state.temp_c for s in system.plant.room.subspaces])
        assert np.allclose(states["dense"], states["structured"],
                           rtol=0, atol=1e-6)


def _registry_grid_temps(zones, solver, minutes=2.0):
    """Final zone temperatures of registry ``grid-<zones>`` after a
    short run on ``solver``; the cache is cleared after, so no large
    decomposition outlives the run."""
    base = get_scenario(f"grid-{zones}")
    spec = dataclasses.replace(
        base, run_minutes=minutes,
        config=dataclasses.replace(base.config, physics_solver=solver))
    system = run_scenario(spec)
    temps = np.array([s.state.temp_c for s in system.plant.room.subspaces])
    assert system.plant.room.macro_gaps > 0, "macro path never engaged"
    spectral.cache_clear()
    return temps


class TestLargeGridRuns:
    """The registry's 512/1024-zone grids are the only users of the
    structured solver; run each end to end against the dense oracle
    (1024 in the slow lane: its dense side peaks near 0.5 GB)."""

    @pytest.mark.parametrize("zones", [
        512, pytest.param(1024, marks=pytest.mark.slow)])
    def test_structured_matches_dense(self, zones):
        structured = _registry_grid_temps(zones, "structured")
        dense = _registry_grid_temps(zones, "dense")
        assert len(structured) == zones
        assert np.allclose(dense, structured, rtol=0, atol=1e-6)


def _run_grid(zones, cols, minutes, vector, obs_on, cache):
    spectral.cache_clear()
    prev = spectral.configure(enabled=cache)
    try:
        config = BubbleZeroConfig(seed=7, network=DIRECT,
                                  physics_vector=vector)
        obs = create_observability(profile=False) if obs_on else None
        system = BubbleZero(config,
                            topology=grid_topology(zones, cols=cols),
                            obs=obs)
        system.start()
        system.run(minutes=minutes)
        system.finalize()
    finally:
        spectral.configure(**prev)
    return system


class TestCacheBitIdentity:
    """Cache on vs cache off is invisible to every trajectory."""

    @pytest.mark.parametrize("zones,cols,minutes", [
        (1, 1, 10.0), (4, 2, 10.0), (32, 8, 5.0), (128, 16, 2.0),
    ])
    @pytest.mark.parametrize("vector", [True, False],
                             ids=["soa", "scalar"])
    @pytest.mark.parametrize("obs_on", [False, True],
                             ids=["blind", "observed"])
    def test_grid_identity(self, zones, cols, minutes, vector, obs_on):
        cached = _run_grid(zones, cols, minutes, vector, obs_on, True)
        uncached = _run_grid(zones, cols, minutes, vector, obs_on, False)
        assert (discrete_log_hash(cached)
                == discrete_log_hash(uncached))
        mismatches = compare_fingerprints(
            trajectory_fingerprint(cached),
            trajectory_fingerprint(uncached))
        assert not mismatches, "\n".join(mismatches)
        for cs, us in zip(cached.plant.room.subspaces,
                          uncached.plant.room.subspaces):
            assert cs.state.temp_c == us.state.temp_c
            assert cs.state.humidity_ratio == us.state.humidity_ratio
            assert cs.state.co2_ppm == us.state.co2_ppm

    def test_goldens_with_cache_disabled(self):
        """Every committed golden replays bit-identically with the
        cache off — the committed NPZ stays the oracle either way."""
        from .golden_trials import GOLDEN_DIR, TRIALS

        spectral.configure(enabled=False)
        for trial, runner in sorted(TRIALS.items()):
            golden = load_fingerprint(GOLDEN_DIR / f"{trial}.npz")
            system = runner(macro=True)
            mismatches = compare_fingerprints(
                trajectory_fingerprint(system), golden)
            assert not mismatches, (
                f"{trial} diverged with cache off:\n"
                + "\n".join(mismatches))


pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_REFERENCE = {}


def _thrash_reference():
    if not _REFERENCE:
        system = _run_grid(4, 2, 5.0, True, False, True)
        _REFERENCE["hash"] = discrete_log_hash(system)
        _REFERENCE["fingerprint"] = trajectory_fingerprint(system)
    return _REFERENCE


class TestEvictionProperty:
    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(max_entries=st.integers(min_value=1, max_value=4))
    def test_eviction_reinsertion_never_changes_trajectory(
            self, max_entries):
        """Thrashing the cache (tiny budgets force constant eviction
        and re-decomposition) reproduces the unconstrained trajectory
        bit for bit."""
        reference = _thrash_reference()
        spectral.cache_clear()
        prev = spectral.configure(max_entries=max_entries)
        try:
            config = BubbleZeroConfig(seed=7, network=DIRECT,
                                      physics_vector=True)
            system = BubbleZero(config,
                                topology=grid_topology(4, cols=2))
            system.start()
            system.run(minutes=5.0)
            system.finalize()
        finally:
            spectral.configure(**prev)
        assert discrete_log_hash(system) == reference["hash"]
        mismatches = compare_fingerprints(
            trajectory_fingerprint(system), reference["fingerprint"])
        assert not mismatches, "\n".join(mismatches)
