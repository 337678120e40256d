"""Process-wide spectral cache and solvers for macro-gap decompositions.

Every macro-stepped gap solves ``x' = A x + r`` in closed form through
an eigendecomposition of the coupling matrix ``A = (B - diag(d)) / s``,
where ``B`` (the symmetric inter-zone coupling pattern) and ``s`` (the
per-row thermal capacity / water mass / air volume scaling) are fixed
for the life of a room and only the diagonal-loss vector ``d`` follows
the actuation pattern.  Steady operation therefore revisits a handful
of distinct ``d`` vectors thousands of times.

This module is the one shared LRU every
:class:`~repro.physics.room.Room` keys into, on either physics path:
the SoA :class:`~repro.physics.vector.VectorPlantKernel` hands its
gaps to :meth:`Room.macro_step` too.

Cache key contract
------------------
An entry is keyed by ``(system_key, d.tobytes())``:

* ``system_key`` — a content hash of ``B``/``s``'s exact float64 bytes
  plus the solver name (:func:`system_key`).  Content addressing means
  any two rooms with equal topology and parameters share entries
  automatically, across systems and across physics paths, without any
  registration step.
* ``d.tobytes()`` — the **exact** bit pattern of the diagonal-loss
  vector.  No quantisation: a coarser key would serve a decomposition
  computed from a *different* matrix, and bit-exactness of the macro
  path (goldens, discrete hashes, scalar-vs-vector identity) is the
  repo's cardinal invariant.  Reuse comes from the physics — actuator
  commands hold between control updates — not from rounding.

The cached value is the exact ``(a_inv, vals, vecs, vecs_inv)`` tuple
the call site would have computed itself, so a hit is bit-identical to
a miss.  Degenerate systems cache ``None`` (the caller falls back to
per-tick integration either way).  Eviction is LRU under both an entry
count and a byte budget — one dense 1024-zone decomposition is ~125 MB
of complex128, so counting entries alone would not bound memory.

Solvers
-------
``dense`` (the reference oracle) repeats the historical
``inv``/``eig``/``inv`` sequence bit for bit.  ``structured`` exploits
the similarity ``D^{1/2} A D^{-1/2}`` being symmetric (``B`` symmetric,
``s`` positive) to use ``eigh``: real eigenvalues, orthogonal
eigenvectors, a closed-form inverse eigenbasis and no general-matrix
inversions — several times faster at 512+ zones (measured ~5x on the
factorisation), which is what makes the 512/1024-zone grids tractable.
The two produce the same trajectories
only up to roundoff, so ``structured`` is opt-in per scenario
(``physics_solver`` on :class:`~repro.core.config.BubbleZeroConfig`)
and the large-grid scenarios are the only registered users; everything
golden-pinned stays on ``dense``.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

SOLVERS = ("dense", "structured")

# LRU budgets.  256 entries covers every steady-state actuation pattern
# of a many-zone run with room to spare; the byte budget is what
# actually binds on 512/1024-zone grids.
DEFAULT_MAX_ENTRIES = 256
DEFAULT_MAX_BYTES = 768 * 1024 * 1024

Decomposition = Optional[Tuple[np.ndarray, np.ndarray, np.ndarray,
                               np.ndarray]]

_cache: "OrderedDict[Tuple[bytes, bytes], Decomposition]" = OrderedDict()
_cache_bytes = 0
_max_entries = DEFAULT_MAX_ENTRIES
_max_bytes = DEFAULT_MAX_BYTES
_enabled = True
_hits = 0
_misses = 0
_evictions = 0


def system_key(base: np.ndarray, scale: np.ndarray,
               solver: str = "dense") -> bytes:
    """Content hash of one room's state-independent coupling structure.

    Computed once per :class:`~repro.physics.room.Room`; rooms with
    bit-equal ``base``/``scale`` and the same solver share cache
    entries.  Raises on unknown solver names so the config axis is
    validated wherever a room is built.
    """
    if solver not in SOLVERS:
        raise ValueError(f"unknown physics solver {solver!r}; "
                         f"expected one of {SOLVERS}")
    digest = hashlib.sha256()
    digest.update(solver.encode("ascii"))
    digest.update(repr(base.shape).encode("ascii"))
    digest.update(base.tobytes())
    digest.update(scale.tobytes())
    return digest.digest()


def decompose(base: np.ndarray, scale: np.ndarray, diag: np.ndarray,
              solver: str = "dense") -> Decomposition:
    """Uncached ``(a_inv, vals, vecs, vecs_inv)`` of one gap's system.

    ``A = (base - diag(d)) / scale`` per quantity, stacked ``(3, n, n)``.
    Returns ``None`` when the algebra degenerates — the caller falls
    back to per-tick integration, exactly as the historical in-line
    code did.
    """
    if solver not in SOLVERS:
        raise ValueError(f"unknown physics solver {solver!r}; "
                         f"expected one of {SOLVERS}")
    n = base.shape[-1]
    mats = base.copy()
    idx = np.arange(n)
    mats[:, idx, idx] -= diag
    mats /= scale[:, :, None]
    if solver == "structured":
        return _structured_decompose(mats, scale)
    try:
        a_inv = np.linalg.inv(mats)
        vals, vecs = np.linalg.eig(mats)
        vecs_inv = np.linalg.inv(vecs)
    except np.linalg.LinAlgError:
        return None
    return (a_inv, vals, vecs, vecs_inv)


def _structured_decompose(mats: np.ndarray,
                          scale: np.ndarray) -> Decomposition:
    """Symmetrised ``eigh`` path for ``A = S^{-1} M`` with ``M`` symmetric.

    With ``D = diag(sqrt(s))``, ``C = D A D^{-1}`` is symmetric, so
    ``eigh(C) = Q L Q^T`` gives ``A = (D^{-1} Q) L (Q^T D)`` with real
    eigenvalues and a closed-form inverse eigenbasis — no complex
    arithmetic and no general-matrix inversions.  Valid for any room
    this repo builds (``base`` is symmetric by construction, the row
    scaling positive); it is gated per scenario anyway because its
    roundoff differs from the dense oracle's.
    """
    sqrt_s = np.sqrt(scale)
    sym = mats * (sqrt_s[:, :, None] / sqrt_s[:, None, :])
    try:
        vals, q = np.linalg.eigh(sym)
    except np.linalg.LinAlgError:
        return None
    if np.any(vals == 0.0):
        return None
    vecs = q / sqrt_s[:, :, None]
    vecs_inv = np.transpose(q, (0, 2, 1)) * sqrt_s[:, None, :]
    a_inv = (vecs / vals[:, None, :]) @ vecs_inv
    return (a_inv, vals, vecs, vecs_inv)


def decomposition(key: bytes, diag: np.ndarray, base: np.ndarray,
                  scale: np.ndarray,
                  solver: str = "dense") -> Decomposition:
    """Shared-cache front end: memoised :func:`decompose`.

    ``key`` is the caller's precomputed :func:`system_key`.  Hits move
    the entry to the LRU tail and return the exact cached arrays (call
    sites never mutate them); misses decompose, then evict from the LRU
    head until both budgets hold.
    """
    global _cache_bytes, _hits, _misses, _evictions
    if not _enabled:
        _misses += 1
        return decompose(base, scale, diag, solver)
    full_key = (key, diag.tobytes())
    try:
        decomp = _cache[full_key]
    except KeyError:
        _misses += 1
    else:
        _hits += 1
        _cache.move_to_end(full_key)
        return decomp
    decomp = decompose(base, scale, diag, solver)
    size = _entry_bytes(decomp)
    while _cache and (len(_cache) >= _max_entries
                      or _cache_bytes + size > _max_bytes):
        _, evicted = _cache.popitem(last=False)
        _cache_bytes -= _entry_bytes(evicted)
        _evictions += 1
    _cache[full_key] = decomp
    _cache_bytes += size
    return decomp


def _entry_bytes(decomp: Decomposition) -> int:
    if decomp is None:
        return 0
    return sum(array.nbytes for array in decomp)


def configure(enabled: Optional[bool] = None,
              max_entries: Optional[int] = None,
              max_bytes: Optional[int] = None) -> Dict[str, object]:
    """Adjust the cache policy; returns the *previous* settings.

    Used by the bench (cache-off comparison runs) and the eviction
    property tests; restore with ``configure(**previous)``.  Shrinking
    the budgets evicts immediately so tests can force churn
    deterministically.
    """
    global _enabled, _max_entries, _max_bytes, _cache_bytes, _evictions
    previous = {"enabled": _enabled, "max_entries": _max_entries,
                "max_bytes": _max_bytes}
    if enabled is not None:
        _enabled = bool(enabled)
    if max_entries is not None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        _max_entries = int(max_entries)
    if max_bytes is not None:
        if max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        _max_bytes = int(max_bytes)
    while _cache and (len(_cache) > _max_entries
                      or _cache_bytes > _max_bytes):
        _, evicted = _cache.popitem(last=False)
        _cache_bytes -= _entry_bytes(evicted)
        _evictions += 1
    return previous


def cache_clear() -> None:
    """Drop all entries and reset the counters (cold-start benches)."""
    global _cache_bytes, _hits, _misses, _evictions
    _cache.clear()
    _cache_bytes = 0
    _hits = 0
    _misses = 0
    _evictions = 0


def cache_stats() -> Dict[str, float]:
    """hits/misses/evictions/entries/bytes plus a derived hit rate.

    Process-global, like the psychrometrics cache stats next to it in
    ``health.json`` — the cache is shared by every system in the
    process, so the stats describe the process, not one run.
    """
    lookups = _hits + _misses
    return {
        "hits": _hits,
        "misses": _misses,
        "evictions": _evictions,
        "entries": len(_cache),
        "bytes": _cache_bytes,
        "hit_rate": (_hits / lookups) if lookups else 0.0,
    }
