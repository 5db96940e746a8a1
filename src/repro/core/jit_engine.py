"""Optional numba-compiled variant of the array engine's chunk loops.

The array engine's table paths are numpy-vectorized but still pay Python
dispatch per chunk step; with `numba <https://numba.pydata.org/>`_
available, the innermost loops compile to native code.  Two loops are
covered: the lazy-mode walk (a compiled prefix over a sorted snapshot of
the pair cache, delegating to the interpreted walk at the first
un-snapshot pair), and the batched engine's lockstep step loop (compiled
fast-forward through warm steps, returning to the interpreted loop at the
first miss).
numba is an *optional* dependency: this module imports it lazily and
degrades explicitly — :func:`numba_unavailable_reason` answers why
compilation is off (the backend registry surfaces that as its capability
reason), and :class:`JitArraySimulator` falls back to the plain
:class:`~repro.core.array_engine.ArraySimulator` behaviour rather than
letting an ``ImportError`` escape, so environments without numba (CI's
``no-numba`` leg, minimal installs) lose only speed, never runs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .array_engine import (
    _CHANGED_BIT,
    _CODE_MASK,
    _CODE_BITS,
    _RANK_FIELD,
    _RESET_BIT,
    ArraySimulator,
)

__all__ = [
    "JitArraySimulator",
    "batched_lockstep_loop",
    "numba_available",
    "numba_unavailable_reason",
]

#: New tabulations tolerated before the lazy walk's sorted snapshot is
#: rebuilt (base plus an eighth of the snapshot, like the batched
#: engine's sorted-array sync cadence).  Staleness is a pure performance
#: matter: pairs missing from the snapshot fall back to the interpreted
#: walk, never to a wrong value.
_SNAP_SYNC_BASE = 64

#: Memoized import outcome: ``None`` until probed, then ``(module, reason)``
#: with exactly one of the two set.
_NUMBA_PROBE: Optional[tuple] = None


def _probe_numba():
    global _NUMBA_PROBE
    if _NUMBA_PROBE is None:
        try:
            import numba
        except Exception as exc:  # ImportError, or a broken install
            _NUMBA_PROBE = (None, f"numba is not installed ({exc.__class__.__name__})")
        else:
            _NUMBA_PROBE = (numba, None)
    return _NUMBA_PROBE


def numba_available() -> bool:
    """Whether the compiled chunk loops can be built in this process."""
    return _probe_numba()[0] is not None


def numba_unavailable_reason() -> Optional[str]:
    """Why compilation is unavailable, or ``None`` when numba imports."""
    module, reason = _probe_numba()
    if module is not None:
        return None
    return "numba is not installed"


#: Memoized compiled lazy-walk kernel.
_COMPILED_LAZY_WALK = None


def _lazy_walk_loop():
    """Compile (once) the lazy-mode walk prefix as a native loop.

    The loop mirrors ``ArraySimulator._walk_all``'s warm path exactly —
    per ordered pair: probe the packed key, apply both next codes,
    accumulate the changed/rank/reset flags — except the probe runs
    against a *sorted snapshot* of the pair cache (binary search) instead
    of the live dict, and the loop stops in front of the first pair the
    snapshot does not hold.  The caller finishes the chunk on the
    interpreted walk, which consults the live dict and can tabulate, so
    a stale snapshot costs speed, never correctness.
    """
    global _COMPILED_LAZY_WALK
    if _COMPILED_LAZY_WALK is not None:
        return _COMPILED_LAZY_WALK
    numba, _ = _probe_numba()
    if numba is None:
        return None

    @numba.njit(cache=False)
    def lazy_walk(codes, initiators, responders, sorted_keys, sorted_vals):
        walked = 0
        changed = False
        ranks = 0
        resets = 0
        count = sorted_keys.shape[0]
        for index in range(len(initiators)):
            i = initiators[index]
            j = responders[index]
            key = (codes[i] << _CODE_BITS) | codes[j]
            pos = np.searchsorted(sorted_keys, key)
            if pos >= count or sorted_keys[pos] != key:
                break
            value = sorted_vals[pos]
            codes[i] = value & _CODE_MASK
            codes[j] = (value >> _CODE_BITS) & _CODE_MASK
            walked += 1
            if value & _CHANGED_BIT:
                changed = True
            if value & _RANK_FIELD:
                ranks += 1
            if value & _RESET_BIT:
                resets += 1
        return walked, changed, ranks, resets

    _COMPILED_LAZY_WALK = lazy_walk
    return lazy_walk


#: Memoized compiled batched lockstep kernel.
_COMPILED_LOCKSTEP_LOOP = None


def batched_lockstep_loop():
    """Compile (once) the batched engine's lockstep step loop.

    Fast-forwards ``BatchedArraySimulator._run_segment`` through
    consecutive fully-warm steps: for each step, gather both codes of
    every lane, look the packed outcome up in the flat direct-address LUT
    mirror (addressed ``a * dim + b`` with ``-1`` as the miss sentinel),
    and — only once every lane hit — scatter the next codes back.  Returns the first step *not* applied
    (a step with at least one miss, left untouched for the interpreted
    loop to resolve), or ``seg`` when the segment completed.  Applied
    steps record their packed values in ``vals_block`` so the caller's
    flag accumulation sees exactly what the interpreted loop would have
    written.
    """
    global _COMPILED_LOCKSTEP_LOOP
    if _COMPILED_LOCKSTEP_LOOP is not None:
        return _COMPILED_LOCKSTEP_LOOP
    numba, _ = _probe_numba()
    if numba is None:
        return None

    @numba.njit(cache=False)
    def lockstep_loop(flat, gij, table_flat, dim, vals_block, width, start, seg):
        for step in range(start, seg):
            # Probe every lane before writing anything: a step with a
            # miss must be left exactly pre-step for the interpreted
            # resolver (which batch-evaluates the misses and may demote).
            for lane in range(width):
                value = table_flat[
                    flat[gij[step, lane]] * dim + flat[gij[step, width + lane]]
                ]
                if value < 0:
                    return step
                vals_block[step, lane] = value
            # Lanes occupy disjoint agent ranges and i != j within a
            # lane, so per-lane immediate writes match the interpreted
            # loop's gather-all-then-scatter-all semantics.
            for lane in range(width):
                value = vals_block[step, lane]
                flat[gij[step, lane]] = value & _CODE_MASK
                flat[gij[step, width + lane]] = (value >> _CODE_BITS) & _CODE_MASK
        return seg

    _COMPILED_LOCKSTEP_LOOP = lockstep_loop
    return lockstep_loop


class JitArraySimulator(ArraySimulator):
    """:class:`ArraySimulator` with a numba-compiled lazy walk.

    The table mode compiles the *warm prefix* of each walk: pairs already
    in a sorted snapshot of the pair cache run natively, and the walk
    returns to the interpreted parent at the first pair the snapshot
    misses (tabulation and demotion stay pure Python).  Object mode
    inherits the parent paths unchanged — its cost is protocol Python,
    which compilation cannot reach.  Without numba the class *is* the
    parent: construction succeeds, every run takes the interpreted
    paths, and the only signal is :func:`numba_available` (the backend
    registry reports the cell as unsupported before it gets here, but
    direct construction must degrade gracefully too).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._jit_walk = _lazy_walk_loop()
        self._jit_sk: Optional[np.ndarray] = None
        self._jit_sv: Optional[np.ndarray] = None
        self._jit_snap_len = 0

    # ------------------------------------------------------------------
    # Compiled lazy walk
    # ------------------------------------------------------------------
    def _jit_snapshot(self):
        """Sorted (keys, values) snapshot of the pair cache, resynced on
        the usual base-plus-an-eighth cadence."""
        pair_dict = self._kernel.pair_dict
        count = len(pair_dict)
        if self._jit_sk is not None and count < (
            self._jit_snap_len
            + _SNAP_SYNC_BASE
            + (self._jit_snap_len >> 3)
        ):
            return self._jit_sk, self._jit_sv
        keys = np.fromiter(pair_dict.keys(), dtype=np.int64, count=count)
        vals = np.fromiter(pair_dict.values(), dtype=np.int64, count=count)
        order = np.argsort(keys)
        self._jit_sk = keys[order]
        self._jit_sv = vals[order]
        self._jit_snap_len = count
        return self._jit_sk, self._jit_sv

    def _jit_walk_prefix(self, ai, ar) -> int:
        """Run the compiled warm prefix over ``(ai, ar)``; returns how
        many leading pairs it consumed (their effects fully applied)."""
        sk, sv = self._jit_snapshot()
        walked, changed, ranks, resets = self._jit_walk(
            self._codes_np,
            np.asarray(ai, dtype=np.int64),
            np.asarray(ar, dtype=np.int64),
            sk,
            sv,
        )
        if walked:
            self._code_list = self._codes_np.tolist()
            self._interactions += walked
            self._rank_assignments += ranks
            self._resets += resets
            if changed:
                self._changed_since_check = True
        return walked

    def _walk_all(self, ai, ar) -> None:
        if self._jit_walk is None or self._mode != "lazy":
            super()._walk_all(ai, ar)
            return
        walked = self._jit_walk_prefix(ai, ar)
        if walked < len(ai):
            super()._walk_all(ai[walked:], ar[walked:])

    def _walk_while_tabulated(self, ai, ar) -> int:
        if self._jit_walk is None or self._mode != "lazy":
            return super()._walk_while_tabulated(ai, ar)
        walked = self._jit_walk_prefix(ai, ar)
        if walked < len(ai):
            # The snapshot may simply be stale: let the interpreted walk
            # (live dict) extend the run before declaring the stop point.
            walked += super()._walk_while_tabulated(ai[walked:], ar[walked:])
        return walked
