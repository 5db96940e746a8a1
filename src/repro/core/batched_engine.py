"""``BatchedArraySimulator`` — S seed-replicas advanced in lockstep.

A study cell runs the same ``(protocol, workload, n)`` under many seeds;
serial execution pays the full per-interaction engine overhead once *per
replica*.  This module advances all replicas together: one shared
:class:`~repro.core.array_engine.EngineCache` tabulation, a ``(S, n)``
state-code matrix, and per-step vectorized gather → table-lookup → scatter
across the replica dimension, so the Python-level per-step cost is paid
once for the whole batch instead of once per seed.

Exactness contract
------------------
Each replica (a *lane*) is bit-identical to a serial
:class:`~repro.core.array_engine.ArraySimulator` run with the same seed,
``chunk_size`` and ``convergence_interval``:

* **rng streams** — every lane owns its own
  :class:`~repro.core.scheduler.UniformPairScheduler`; lanes refill their
  4096-pair buffers with the exact ``sample_chunk`` call sequence of the
  serial engine, so the generator state evolves identically.  Lanes that
  converge (or demote) simply stop sampling — their generator is never
  touched again, exactly as when a serial run ends, so remaining lanes'
  streams are unperturbed.
* **trajectories** — the lockstep walk executes every interaction in
  order via the shared packed transition tables.  The serial engine's
  bulk no-op elimination and SoA kernels are pure optimizations with
  identical observable semantics, so omitting them changes nothing.
* **convergence cadence** — all lanes share ``convergence_interval``,
  budget and metric cadence, which keeps block boundaries aligned (the
  lockstep invariant).  Per-lane ``changed_since_check`` flags and
  per-lane predicate evaluation reproduce the serial stopping
  interaction exactly.
* **mid-run demotion** — a lane whose stream hits a state pair that
  consumes randomness leaves the lockstep group at the exact interaction
  the serial engine would demote at, finishes the run on the object path
  with its own scheduler (draining its buffered pairs first), and keeps
  its own protocol instance — all other lanes stay vectorized.

Convergence screening
---------------------
Evaluating the exact Python predicate for every lane at every check
boundary would cost ``O(S · n)`` Python per ``convergence_interval``.
Protocols that implement :meth:`~repro.core.protocol.PopulationProtocol
.state_converged` get a vectorized screen instead: a per-code boolean
table is built lazily over the interned state space, and a lane runs the
exact predicate only when *every* agent's code passes the screen.  The
screen is a necessary condition, so the observable answer is unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from .array_engine import (
    _CHANGED_BIT,
    _CODE_BITS,
    _CODE_MASK,
    _MAX_RANK,
    _RANK_FIELD,
    _RESET_BIT,
    ArraySimulator,
    EngineCache,
    _LazyKernel,
)
from .configuration import Configuration
from .jit_engine import batched_lockstep_loop
from .errors import CodecError, SimulationLimitExceeded
from .metrics import MetricsCollector
from .protocol import PopulationProtocol
from .rng import RandomState
from .scheduler import UniformPairScheduler
from .simulation import SimulationResult

__all__ = ["BatchedArraySimulator"]

#: Resync the sorted lookup arrays once this many pairs were tabulated
#: since the last sync (plus a fraction of the current table, so large
#: warm tables are not re-sorted for a trickle of novel pairs).  Only used
#: on the fallback path when the direct-address mirror is unavailable.
_SYNC_BASE = 64

#: Largest code-space dimension mirrored by the direct-address lookup
#: (``dim² × 8`` bytes — 0.5 GiB at the cap).  Beyond it the engine falls
#: back to the sorted-array mirror, which scales with tabulated pairs
#: instead of the squared state space.
_LUT_MAX_DIM = 8192


class BatchedArraySimulator:
    """Advance ``S`` independent seed-replicas of one cell in lockstep.

    Parameters
    ----------
    protocols:
        One protocol instance per lane.  All instances must be equivalent
        (same type and constructor arguments — the
        :class:`~repro.core.array_engine.EngineCache` sharing contract);
        lane ``k``'s instance serves its object-path transitions and
        convergence predicate, instance 0 drives the shared tabulation.
    configurations:
        Optional per-lane initial configurations (default: each lane's
        ``protocol.initial_configuration()``).
    random_states:
        Per-lane seeds/generators — exactly what the serial engine for
        seed ``k`` would receive.
    metrics:
        Optional per-lane :class:`MetricsCollector` list (all lanes or
        none, identical ``interval`` — the lockstep invariant).
    convergence_interval, chunk_size, cache:
        As for :class:`~repro.core.array_engine.ArraySimulator`; shared
        by every lane.
    """

    def __init__(
        self,
        protocols: Sequence[PopulationProtocol],
        configurations: Optional[Sequence[Configuration]] = None,
        random_states: Optional[Sequence[RandomState]] = None,
        metrics: Optional[Sequence[Optional[MetricsCollector]]] = None,
        convergence_interval: Optional[int] = None,
        chunk_size: int = 4096,
        cache: Optional[EngineCache] = None,
        topology=None,
    ):
        if not protocols:
            raise ValueError("need at least one lane")
        self._topology = topology
        self._protocols = list(protocols)
        lanes = len(self._protocols)
        n = self._protocols[0].n
        for protocol in self._protocols[1:]:
            if protocol.n != n:
                raise SimulationLimitExceeded(
                    "all batched lanes must share one population size"
                )
        self._lanes = lanes
        self._n = n
        if configurations is None:
            configurations = [p.initial_configuration() for p in self._protocols]
        self._configs = list(configurations)
        if len(self._configs) != lanes:
            raise ValueError("configurations must match the lane count")
        for config in self._configs:
            if config.population_size != n:
                raise SimulationLimitExceeded(
                    f"configuration has {config.population_size} agents "
                    f"but protocol was built for n={n}"
                )
        if random_states is None:
            random_states = [None] * lanes
        if len(random_states) != lanes:
            raise ValueError("random_states must match the lane count")
        self._random_states = list(random_states)
        if metrics is not None:
            if len(metrics) != lanes:
                raise ValueError("metrics must match the lane count")
            if all(m is None for m in metrics):
                metrics = None
            elif any(m is None for m in metrics):
                raise ValueError("metrics must cover every lane or none")
            else:
                intervals = {m.interval for m in metrics}
                if len(intervals) > 1:
                    raise ValueError(
                        "batched lanes must share one metrics interval, "
                        f"got {sorted(intervals)}"
                    )
        self._collectors = list(metrics) if metrics is not None else None
        self._ci = (
            convergence_interval
            if convergence_interval is not None
            else max(n, 4096)
        )
        if self._ci < 1:
            raise ValueError("convergence_interval must be positive")
        self._chunk = chunk_size
        self._cache = cache if cache is not None else EngineCache()

        self._codec = None
        self._kernel = None
        self._codes: Optional[np.ndarray] = None
        self._flat: Optional[np.ndarray] = None
        self._mode = self._select_mode()

        if self._mode == "serial-fallback":
            return

        # Per-lane schedulers: the same constructor call (and therefore
        # the same untouched generator) as the serial engine's.  With a
        # topology, each lane gets its own scheduler (and pair stream /
        # pending-delay state) over the one shared immutable graph —
        # exactly what the serial engine builds per seed.
        if topology is not None:
            if topology.n != n:
                raise SimulationLimitExceeded(
                    f"topology was built for n={topology.n} "
                    f"but protocols have n={n}"
                )
            from ..topologies.scheduler import TopologyScheduler

            self._schedulers = [
                TopologyScheduler(topology, state, chunk_size=chunk_size)
                for state in self._random_states
            ]
        else:
            self._schedulers = [
                UniformPairScheduler(n, state, chunk_size=chunk_size)
                for state in self._random_states
            ]
        self._buffer = np.empty((lanes, chunk_size, 2), dtype=np.int64)
        self._cursor = chunk_size  # empty: first use refills
        self._lane_cursor = [chunk_size] * lanes  # object-path drain point
        self._lane_mode = ["table"] * lanes

        self._interactions = 0
        self._final_interactions = [-1] * lanes
        self._rank_counts = np.zeros(lanes, dtype=np.int64)
        self._reset_counts = np.zeros(lanes, dtype=np.int64)
        self._changed_since_check = np.ones(lanes, dtype=bool)
        self._converged = np.zeros(lanes, dtype=bool)

        # Packed-value mirrors of the lazy pair cache.  Preferred: a
        # direct-address table indexed by ``a * dim + b`` (misses read as
        # -1 and are inserted scalar at tabulation time, so the mirror is
        # never stale).  Fallback beyond ``_LUT_MAX_DIM`` interned codes:
        # sorted key/value arrays re-sorted on a sync cadence.
        self._lut: Optional[np.ndarray] = None
        self._dim = 0
        self._lut_rows = 0
        self._sk = np.empty(0, dtype=np.int64)
        self._sv = np.empty(0, dtype=np.int64)
        self._pending_sync = 0
        self._grow_lut()

        # Optional numba fast-forward through fully-warm lockstep steps
        # (``None`` without numba: the interpreted loop is the only path).
        self._jit_lockstep = batched_lockstep_loop()

        # Vectorized convergence screen over interned codes.
        self._screen = np.empty(0, dtype=bool)
        self._screen_len = 0
        self._screen_enabled = True

    # ------------------------------------------------------------------
    # Mode selection
    # ------------------------------------------------------------------
    def _select_mode(self) -> str:
        cache = self._cache
        protocol = self._protocols[0]
        if cache.mode == "object" or protocol.consumes_randomness() is True:
            return "serial-fallback"
        if self._n >= _MAX_RANK:
            return "serial-fallback"
        codec = cache.codec
        # Merge persisted pair spills (if a store is attached) before the
        # first interning: they pre-warm the LUT's initial bulk scatter.
        cache.load_persisted(protocol)
        try:
            rows = [
                codec.encode_many(config.states) for config in self._configs
            ]
        except CodecError:
            return "serial-fallback"
        self._codec = codec
        self._codes = np.stack(rows).astype(np.int64, copy=False)
        self._flat = self._codes.reshape(-1)
        cache.mode = "lazy"
        self._kernel = _LazyKernel(protocol, codec, cache)
        return "lazy"

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def lanes(self) -> int:
        """Number of seed-replicas advanced by this simulator."""
        return self._lanes

    @property
    def mode(self) -> str:
        """``"lazy"`` or ``"serial-fallback"``."""
        return self._mode

    @property
    def protocol(self) -> PopulationProtocol:
        """Lane 0's protocol (extractors only read shared metadata)."""
        return self._protocols[0]

    def lane_protocol(self, lane: int) -> PopulationProtocol:
        """The protocol instance owned by ``lane``."""
        return self._protocols[lane]

    # ------------------------------------------------------------------
    # Lookup maintenance
    # ------------------------------------------------------------------
    def _sync_lookup(self) -> None:
        pair_dict = self._kernel.pair_dict
        count = len(pair_dict)
        keys = np.fromiter(pair_dict.keys(), dtype=np.int64, count=count)
        vals = np.fromiter(pair_dict.values(), dtype=np.int64, count=count)
        order = np.argsort(keys)
        self._sk = keys[order]
        self._sv = vals[order]
        self._pending_sync = 0

    def _grow_lut(self) -> None:
        """Extend the direct-address mirror over freshly interned codes.

        The mirror is one ``np.empty`` of ``_LUT_MAX_DIM**2`` slots with a
        *constant* row stride — virtual memory until touched, so the
        537 MB reservation is instant and resident pages track the codes
        actually in use.  Growing the code space only fills the new rows
        with the ``-1`` sentinel (a few hundred KB, never a full-table
        refill).  Past ``_LUT_MAX_DIM`` codes the mirror is dropped and
        the sorted-array fallback takes over.
        """
        size = self._codec.size
        if size > _LUT_MAX_DIM:
            self._lut = None
            if self._kernel.pair_dict:
                self._sync_lookup()
            return
        if self._lut is None and self._lut_rows == 0:
            self._lut = np.empty(_LUT_MAX_DIM * _LUT_MAX_DIM, dtype=np.int64)
            self._dim = _LUT_MAX_DIM
        self._lut[self._lut_rows * _LUT_MAX_DIM:size * _LUT_MAX_DIM].fill(-1)
        if self._lut_rows == 0:
            # Initial build may see a pre-warmed shared cache: scatter it
            # in bulk.  Later extensions skip this — pairs already in the
            # dict resolve through one scalar dict hit on first miss and
            # are mirrored then, which keeps extension cost proportional
            # to the new rows rather than the whole cache.
            pair_dict = self._kernel.pair_dict
            if pair_dict:
                count = len(pair_dict)
                keys = np.fromiter(
                    pair_dict.keys(), dtype=np.int64, count=count
                )
                vals = np.fromiter(
                    pair_dict.values(), dtype=np.int64, count=count
                )
                self._lut[
                    (keys >> _CODE_BITS) * _LUT_MAX_DIM + (keys & _CODE_MASK)
                ] = vals
        self._lut_rows = size

    def _lut_bulk_insert(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Mirror a batch of resolved pairs with one scatter."""
        if self._lut is None or len(keys) == 0:
            return
        if self._codec.size > self._lut_rows:
            self._grow_lut()
            if self._lut is None:
                return
        self._lut[
            (keys >> _CODE_BITS) * _LUT_MAX_DIM + (keys & _CODE_MASK)
        ] = values

    # ------------------------------------------------------------------
    # Convergence
    # ------------------------------------------------------------------
    def _extend_screen(self) -> None:
        if not self._screen_enabled:
            return
        size = self._codec.size
        if size <= self._screen_len:
            return
        protocol = self._protocols[0]
        codec = self._codec
        fresh = []
        for code in range(self._screen_len, size):
            verdict = protocol.state_converged(codec.prototype(code))
            if verdict is None:
                self._screen_enabled = False
                return
            fresh.append(bool(verdict))
        self._screen = np.concatenate(
            [self._screen, np.asarray(fresh, dtype=bool)]
        )
        self._screen_len = size

    def _lane_view(self, lane: int) -> Configuration:
        if self._lane_mode[lane] == "object":
            return self._configs[lane]
        return Configuration(
            self._codec.prototype_view(self._codes[lane].tolist())
        )

    def _check_lane(self, lane: int) -> bool:
        if self._lane_mode[lane] == "table" and self._screen_enabled:
            self._extend_screen()
            if self._screen_enabled and not self._screen[
                self._codes[lane]
            ].all():
                return False
        return self._protocols[lane].has_converged(self._lane_view(lane))

    # ------------------------------------------------------------------
    # Object path (per-lane, after demotion)
    # ------------------------------------------------------------------
    def _materialize_lane(self, lane: int) -> None:
        self._configs[lane].states[:] = self._codec.materialize_many(
            self._codes[lane].tolist()
        )

    def _apply_pairs_object(self, lane: int, pairs) -> None:
        protocol = self._protocols[lane]
        states = self._configs[lane].states
        rng = self._schedulers[lane].rng
        ranks = 0
        resets = 0
        for i, j in pairs:
            result = protocol.transition(states[i], states[j], rng)
            if result.rank_assigned is not None:
                ranks += 1
            if result.reset_triggered:
                resets += 1
            if result.changed:
                self._changed_since_check[lane] = True
        self._rank_counts[lane] += ranks
        self._reset_counts[lane] += resets

    def _advance_lane_object(self, lane: int, count: int) -> None:
        # Drain the lane's already-sampled engine buffer before drawing
        # fresh pairs, exactly like the serial engine's object path.
        cursor = self._lane_cursor[lane]
        if cursor < self._chunk:
            take = min(count, self._chunk - cursor)
            self._apply_pairs_object(
                lane, self._buffer[lane, cursor:cursor + take].tolist()
            )
            self._lane_cursor[lane] = cursor + take
            count -= take
            if count <= 0:
                return
        protocol = self._protocols[lane]
        states = self._configs[lane].states
        scheduler = self._schedulers[lane]
        rng = scheduler.rng
        sample = scheduler.sample
        ranks = 0
        resets = 0
        for _ in range(count):
            i, j = sample()
            result = protocol.transition(states[i], states[j], rng)
            if result.rank_assigned is not None:
                ranks += 1
            if result.reset_triggered:
                resets += 1
            if result.changed:
                self._changed_since_check[lane] = True
        self._rank_counts[lane] += ranks
        self._reset_counts[lane] += resets

    # ------------------------------------------------------------------
    # Lockstep advancement
    # ------------------------------------------------------------------
    def _run_segment(self, table: List[int], seg: int):
        """Advance every table lane by up to ``seg`` buffered pairs.

        Returns ``(consumed, demoted)``: the number of lockstep steps
        executed (less than ``seg`` only when a lane demoted) and the
        lanes that hit a randomness-consuming pair at step
        ``consumed - 1`` (their state is exactly pre-that-step; the
        caller re-executes the raising pair on the object path).
        """
        lanes_np = np.asarray(table, dtype=np.int64)
        width = len(table)
        cursor = self._cursor
        pairs = self._buffer[lanes_np, cursor:cursor + seg, :]
        base = lanes_np * self._n
        gi = pairs[:, :, 0] + base[:, None]
        gj = pairs[:, :, 1] + base[:, None]
        # One step-major (seg, 2*width) index matrix: row ``step`` holds
        # every initiator position followed by every responder position.
        # A step's 2*width positions are always distinct (lanes occupy
        # disjoint agent ranges and i != j within a lane), so each step
        # needs exactly one gather and one scatter against ``flat``, and
        # the fused scratch buffers below make the walk allocation-free —
        # at lockstep widths the per-call numpy dispatch is the cost that
        # matters, not the arithmetic.
        gij = np.ascontiguousarray(np.concatenate([gi, gj], axis=0).T)
        flat = self._flat
        vals_block = np.empty((seg, width), dtype=np.int64)
        kbuf = np.empty(width, dtype=np.int64)
        nxt = np.empty(2 * width, dtype=np.int64)
        consumed = seg
        demoted: List[int] = []

        step = 0
        jit = self._jit_lockstep
        while step < seg:
            if jit is not None:
                # Fast-forward through consecutive fully-warm steps in one
                # native call (direct-address LUT only; the sorted-array
                # fallback keeps the interpreted loop).  The returned step
                # is the first with a miss, left untouched for the batch
                # resolver below.
                if self._lut is not None:
                    step = jit(
                        flat, gij, self._lut, _LUT_MAX_DIM,
                        vals_block, width, step, seg,
                    )
                if step >= seg:
                    break
            idx = gij[step]
            ab = flat[idx]
            a = ab[:width]
            b = ab[width:]
            vals = vals_block[step]
            lut = self._lut
            if lut is not None:
                np.multiply(a, _LUT_MAX_DIM, out=kbuf)
                kbuf += b
                np.take(lut, kbuf, out=vals)
                misses = np.flatnonzero(vals < 0) if vals.min() < 0 else None
            else:
                keys = (a << _CODE_BITS) | b
                sk = self._sk
                if sk.size:
                    pos = np.minimum(np.searchsorted(sk, keys), sk.size - 1)
                    hit = sk[pos] == keys
                    vals[:] = self._sv[pos]
                else:
                    hit = np.zeros(width, dtype=bool)
                    vals[:] = 0
                misses = None if hit.all() else np.flatnonzero(~hit)
            if misses is not None:
                # All of a step's misses see settled codes, so they
                # resolve as one batch: a single kernel call with the
                # dispatch hoisted out of the per-pair loop, then one
                # bulk LUT scatter instead of per-miss inserts.  Key
                # order matches the old per-slot loop, so codec
                # interning — and every trajectory — is unchanged.
                miss_keys = [
                    (int(a[slot]) << _CODE_BITS) | int(b[slot])
                    for slot in misses
                ]
                values, raised_at, novel = (
                    self._kernel.evaluate_packed_batch(miss_keys)
                )
                self._pending_sync += novel
                vals[misses] = values
                resolved = np.ones(len(miss_keys), dtype=bool)
                resolved[raised_at] = False
                self._lut_bulk_insert(
                    np.asarray(miss_keys, dtype=np.int64)[resolved],
                    np.asarray(values, dtype=np.int64)[resolved],
                )
                if self._lut is None and self._pending_sync >= (
                    _SYNC_BASE + (self._sk.size >> 3)
                ):
                    self._sync_lookup()
                raised = [int(misses[pos]) for pos in raised_at]
                if raised:
                    keep = np.ones(width, dtype=bool)
                    keep[raised] = False
                    vals[raised] = 0
                    flat[idx[:width][keep]] = vals[keep] & _CODE_MASK
                    flat[idx[width:][keep]] = (
                        vals[keep] >> _CODE_BITS
                    ) & _CODE_MASK
                    consumed = step + 1
                    demoted = [table[slot] for slot in raised]
                    break
            np.bitwise_and(vals, _CODE_MASK, out=nxt[:width])
            np.right_shift(vals, _CODE_BITS, out=nxt[width:])
            nxt[width:] &= _CODE_MASK
            flat[idx] = nxt
            step += 1

        block = vals_block[:consumed]
        if consumed:
            self._changed_since_check[lanes_np] |= (
                (block & _CHANGED_BIT) != 0
            ).any(axis=0)
            self._rank_counts[lanes_np] += ((block & _RANK_FIELD) != 0).sum(
                axis=0
            )
            self._reset_counts[lanes_np] += ((block & _RESET_BIT) != 0).sum(
                axis=0
            )
        return consumed, demoted

    def _advance_block(self, active: List[int], count: int) -> None:
        table = [k for k in active if self._lane_mode[k] == "table"]
        already_object = [
            k for k in active if self._lane_mode[k] == "object"
        ]
        done = 0
        while done < count and table:
            if self._cursor >= self._chunk:
                for lane in table:
                    self._buffer[lane] = self._schedulers[lane].sample_chunk(
                        self._chunk
                    )
                self._cursor = 0
            seg = min(count - done, self._chunk - self._cursor)
            consumed, demoted = self._run_segment(table, seg)
            self._cursor += consumed
            done += consumed
            for lane in demoted:
                # The raising pair was not applied: re-execute it (and
                # the lane's remaining block steps) on the object path,
                # mirroring the serial engine's mid-chunk demotion.
                self._lane_mode[lane] = "object"
                self._materialize_lane(lane)
                self._lane_cursor[lane] = self._cursor - 1
                self._advance_lane_object(lane, count - done + 1)
                table.remove(lane)
        for lane in already_object:
            self._advance_lane_object(lane, count)

    # ------------------------------------------------------------------
    # Driving loop
    # ------------------------------------------------------------------
    def run(
        self,
        max_interactions: int,
        stop_on_convergence: bool = True,
    ) -> List[SimulationResult]:
        """Run every lane; returns one serial-identical result per lane."""
        if max_interactions < 0:
            raise ValueError("max_interactions must be non-negative")
        if self._mode == "serial-fallback":
            return self._run_serial(max_interactions, stop_on_convergence)

        lanes = self._lanes
        collectors = self._collectors
        if collectors is not None:
            for lane in range(lanes):
                collectors[lane].record(0, self._lane_view(lane))

        budget_end = max_interactions
        for lane in range(lanes):
            self._converged[lane] = self._check_lane(lane)
        next_check = self._ci
        active = list(range(lanes))

        while True:
            if stop_on_convergence:
                still = []
                for lane in active:
                    if self._converged[lane]:
                        self._final_interactions[lane] = self._interactions
                    else:
                        still.append(lane)
                active = still
            if not active or self._interactions >= budget_end:
                break
            target = min(budget_end, next_check)
            if collectors is not None:
                due = collectors[active[0]].next_due
                if due <= self._interactions:
                    target = self._interactions + 1
                else:
                    target = min(target, due)
            self._advance_block(active, target - self._interactions)
            self._interactions = target
            if collectors is not None:
                for lane in active:
                    collectors[lane].maybe_record(
                        target, self._lane_view(lane)
                    )
            if target >= next_check:
                for lane in active:
                    if self._changed_since_check[lane]:
                        self._converged[lane] = self._check_lane(lane)
                        self._changed_since_check[lane] = False
                next_check = self._interactions + self._ci

        results = []
        for lane in range(lanes):
            if self._final_interactions[lane] < 0:
                self._final_interactions[lane] = self._interactions
            converged = self._check_lane(lane)
            final = self._final_interactions[lane]
            if collectors is not None:
                self._record_final_snapshot(lane, final)
            if self._lane_mode[lane] == "table":
                self._materialize_lane(lane)
            results.append(
                SimulationResult(
                    converged=converged,
                    interactions=final,
                    configuration=self._configs[lane],
                    metrics=(
                        collectors[lane].series
                        if collectors is not None
                        else {}
                    ),
                    rank_assignments=int(self._rank_counts[lane]),
                    resets=int(self._reset_counts[lane]),
                    protocol=self._protocols[lane].describe(),
                )
            )
        return results

    def _record_final_snapshot(self, lane: int, final: int) -> None:
        collector = self._collectors[lane]
        for series in collector.series.values():
            if series.interactions and series.interactions[-1] == final:
                return
            break
        collector.record(final, self._lane_view(lane))

    def _run_serial(
        self, max_interactions: int, stop_on_convergence: bool
    ) -> List[SimulationResult]:
        """Exact per-lane fallback when lockstep table modes are unavailable."""
        results = []
        for lane in range(self._lanes):
            simulator = ArraySimulator(
                self._protocols[lane],
                configuration=self._configs[lane],
                random_state=self._random_states[lane],
                metrics=(
                    self._collectors[lane]
                    if self._collectors is not None
                    else None
                ),
                convergence_interval=self._ci,
                chunk_size=self._chunk,
                cache=self._cache,
                topology=self._topology,
            )
            results.append(
                simulator.run(max_interactions, stop_on_convergence)
            )
        return results
