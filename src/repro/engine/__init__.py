"""Vectorized array-fleet execution engine and the unified Backend API.

This package is the "scale + speed" layer of the reproduction:

* :class:`~repro.engine.fleet.ArrayFleet` — N compute arrays as one
  ``(n_arrays, rows, cols)`` bit tensor, primitives lockstep across all
  arrays per call;
* :class:`~repro.engine.packed.PackedArrayFleet` — the same primitives on
  ``np.packbits``-style word planes (one bit-column per word bit, the
  word sized to the array width: uint16 for 16 columns, uint64 words
  beyond 64; 8x smaller, several times faster per lockstep op); both
  stores sit behind the :class:`~repro.engine.fleet.PlaneStore` seam and
  :func:`~repro.engine.packed.make_fleet` selects one;
* :class:`~repro.engine.bitserial.FleetBitSerialUnit` — the bit-serial
  operation sequences, lockstep across every array of a store; the
  single-array :class:`~repro.sram.bitserial.BitSerialUnit` is its
  ``n_arrays=1`` view;
* :mod:`repro.engine.backend` — the :class:`~repro.engine.backend.Backend`
  protocol unifying the analytic simulator and the functional fleet
  executor behind one ``run(network, batch_size)`` interface.

The backend module is imported lazily (PEP 562): it depends on
:mod:`repro.core`, which depends on :mod:`repro.sram`, which depends on
the fleet — eager import here would close that cycle.
"""

from repro.engine.bitserial import FleetBitSerialUnit, Operand
from repro.engine.fleet import ArrayFleet, FleetPeriphery, PlaneStore, mux
from repro.engine.packed import (
    PackedArrayFleet,
    PackedFleetPeriphery,
    make_fleet,
)

_BACKEND_NAMES = (
    "AnalyticBackend",
    "Backend",
    "BackendOptions",
    "BackendResult",
    "BatchOutcome",
    "FleetExecutor",
    "ShardReport",
    "available_backends",
    "check_batch_size",
    "get_backend",
)

_SHARDING_NAMES = (
    "ShardedBackend",
)

# The persistent pool is lazy for the same reason as the backend: it
# pulls in repro.core via the executor.
_POOL_NAMES = (
    "ShardWorkerPool",
)

__all__ = [
    "ArrayFleet",
    "FleetBitSerialUnit",
    "FleetPeriphery",
    "Operand",
    "PackedArrayFleet",
    "PackedFleetPeriphery",
    "PlaneStore",
    "make_fleet",
    "mux",
    *_BACKEND_NAMES,
    *_SHARDING_NAMES,
    *_POOL_NAMES,
]


def __getattr__(name: str):
    if name in _BACKEND_NAMES:
        from repro.engine import backend
        return getattr(backend, name)
    if name in _SHARDING_NAMES:
        from repro.engine import sharding
        return getattr(sharding, name)
    if name in _POOL_NAMES:
        from repro.engine import pool
        return getattr(pool, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
