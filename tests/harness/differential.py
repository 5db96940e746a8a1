"""Cross-engine differential test harness.

One driver runs the same ``(protocol, workload, n, seed)`` cell on every
backend that claims it can, and compares the outcomes according to each
backend's declared exactness class:

* ``"trajectory"`` backends (reference, array, array-jit, the batched
  engine's lanes) must be **bit-identical** — same stopping interaction,
  same counters, same final states, same metric series;
* ``"distribution"`` backends (aggregate, group) must be **consistent in
  distribution** — matched ensembles of an observable pass a two-sample
  Kolmogorov–Smirnov test.

The ad-hoc per-engine equivalence tests grew one comparison helper per
test module; this harness centralizes the canonical trajectory snapshot
(:func:`snapshot`), the bit-identity assertion (:func:`assert_identical`)
and the KS helper (:func:`ks_2sample`, scipy-free) so every suite makes
the same comparison, and adding a backend means adding capability
answers, not new test plumbing.

Conventions baked in (they are what make bit-identity well-defined):

* every engine runs with ``convergence_interval=n`` so stopping decisions
  land on the same interaction;
* per-seed cells derive their generator from the seed integer alone —
  exactly what the study layer's
  :func:`repro.core.rng.cell_seed_sequences` guarantees per cell;
* the batched engine is compared lane-by-lane against the serial run of
  the matching seed, each side with its own fresh
  :class:`~repro.core.array_engine.EngineCache` (sharing one cache is
  *also* exact, but separate caches make the comparison adversarial:
  the two sides tabulate in different orders).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.array_engine import EngineCache
from repro.core.backends import capability_matrix, get_backend
from repro.core.batched_engine import BatchedArraySimulator

__all__ = [
    "Trajectory",
    "snapshot",
    "assert_identical",
    "trajectory_engines",
    "run_serial",
    "run_batched",
    "differential_trajectories",
    "assert_batched_matches_serial",
    "ks_2sample",
    "assert_ks_consistent",
]


# ----------------------------------------------------------------------
# Canonical trajectory snapshot
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Trajectory:
    """Everything a trajectory-exact engine must reproduce bit-for-bit."""

    converged: bool
    interactions: int
    rank_assignments: int
    resets: int
    states: Tuple[tuple, ...]
    series: Tuple[Tuple[str, Tuple[int, ...], tuple], ...] = ()


def _state_tuple(state) -> tuple:
    as_tuple = getattr(state, "as_tuple", None)
    if as_tuple is not None:
        return as_tuple()
    # States without the interning protocol: dataclasses (slotted or not)
    # canonicalize by field order, anything else by public attributes.
    if dataclasses.is_dataclass(state):
        return dataclasses.astuple(state)
    public = {
        k: v for k, v in vars(state).items() if not k.startswith("_")
    }
    return tuple(sorted(public.items()))


def snapshot(result) -> Trajectory:
    """Canonicalize a :class:`~repro.core.simulation.SimulationResult`."""
    series = tuple(
        (name, tuple(s.interactions), tuple(s.values))
        for name, s in sorted(result.metrics.items())
    )
    return Trajectory(
        converged=bool(result.converged),
        interactions=int(result.interactions),
        rank_assignments=int(result.rank_assignments),
        resets=int(result.resets),
        states=tuple(
            _state_tuple(state) for state in result.configuration.states
        ),
        series=series,
    )


def assert_identical(
    expected: Trajectory, actual: Trajectory, context: str = ""
) -> None:
    """Field-by-field bit-identity with a readable failure message."""
    prefix = f"{context}: " if context else ""
    assert actual.interactions == expected.interactions, (
        f"{prefix}stopped at {actual.interactions}, "
        f"expected {expected.interactions}"
    )
    assert actual.converged == expected.converged, (
        f"{prefix}converged={actual.converged}, "
        f"expected {expected.converged}"
    )
    assert actual.rank_assignments == expected.rank_assignments, (
        f"{prefix}rank_assignments {actual.rank_assignments} != "
        f"{expected.rank_assignments}"
    )
    assert actual.resets == expected.resets, (
        f"{prefix}resets {actual.resets} != {expected.resets}"
    )
    if actual.states != expected.states:
        diff = [
            index
            for index, (a, b) in enumerate(
                zip(actual.states, expected.states)
            )
            if a != b
        ]
        raise AssertionError(
            f"{prefix}final states differ at agent indices {diff[:8]}"
            + ("…" if len(diff) > 8 else "")
        )
    assert actual.series == expected.series, (
        f"{prefix}metric series differ"
    )


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
def trajectory_engines(
    protocol, workload: str = "fresh", n: Optional[int] = None, **probe
) -> List[str]:
    """Names of agent-kind backends answering trajectory-exact support."""
    n = protocol.n if n is None else n
    names = []
    for name, capability in capability_matrix(
        protocol, workload, n, **probe
    ).items():
        backend = get_backend(name)
        if (
            backend.kind == "agent"
            and not backend.batches
            and capability.supported
            and capability.exactness == "trajectory"
        ):
            names.append(name)
    return names


def run_serial(
    engine: str,
    protocol_factory: Callable[[int], object],
    n: int,
    seed: int,
    *,
    budget: int,
    stop_on_convergence: bool = True,
    cache: Optional[EngineCache] = None,
    metrics_factory: Optional[Callable[[], object]] = None,
    topology=None,
) -> Trajectory:
    """Run one cell on one registered agent backend and snapshot it.

    ``topology`` is a built :class:`repro.topologies.Topology` (or None
    for the complete-graph default) — exactly what the study layer hands
    the backends for a restricted cell.
    """
    backend = get_backend(engine)
    kwargs = dict(
        random_state=seed,
        convergence_interval=n,
    )
    if metrics_factory is not None:
        kwargs["metrics"] = metrics_factory()
    if backend.uses_cache:
        kwargs["cache"] = cache if cache is not None else EngineCache()
    if topology is not None:
        kwargs["topology"] = topology
    simulator = backend.create(protocol_factory(n), **kwargs)
    return snapshot(
        simulator.run(
            max_interactions=budget,
            stop_on_convergence=stop_on_convergence,
        )
    )


def run_batched(
    protocol_factory: Callable[[int], object],
    n: int,
    seeds: Sequence[int],
    *,
    budget: int,
    stop_on_convergence: bool = True,
    cache: Optional[EngineCache] = None,
    metrics_factory: Optional[Callable[[], object]] = None,
    topology=None,
) -> List[Trajectory]:
    """Run a seed group through one lockstep batched simulator.

    Constructs the :class:`BatchedArraySimulator` directly (not through
    the registry) so unsupported-for-batching protocols still run — they
    take the engine's exact per-lane serial fallback, which the harness
    deliberately also exercises.
    """
    batch = BatchedArraySimulator(
        [protocol_factory(n) for _ in seeds],
        random_states=[np.random.default_rng(seed) for seed in seeds],
        metrics=(
            [metrics_factory() for _ in seeds]
            if metrics_factory is not None
            else None
        ),
        convergence_interval=n,
        cache=cache if cache is not None else EngineCache(),
        topology=topology,
    )
    return [
        snapshot(result)
        for result in batch.run(
            budget, stop_on_convergence=stop_on_convergence
        )
    ]


def differential_trajectories(
    protocol_factory: Callable[[int], object],
    n: int,
    seeds: Sequence[int],
    *,
    budget: int,
    workload: str = "fresh",
    stop_on_convergence: bool = True,
    metrics_factory: Optional[Callable[[], object]] = None,
    topology=None,
) -> Dict[str, List[Trajectory]]:
    """Every capable trajectory engine's per-seed snapshots, plus batched.

    Returns ``{engine_name: [trajectory per seed]}`` with ``"reference"``
    always present (the comparison anchor) and ``"array-batched"`` holding
    the lockstep engine's lanes.  Each engine uses one cache across its
    seeds, mirroring how a study amortizes tabulation.  ``topology`` (a
    built :class:`repro.topologies.Topology`) restricts the interaction
    graph on every engine; capability filtering uses its family name, so
    distribution-class backends drop out exactly as they do in a study.
    """
    results: Dict[str, List[Trajectory]] = {}
    probe = {"topology": topology.family} if topology is not None else {}
    for engine in trajectory_engines(protocol_factory(n), workload, n, **probe):
        cache = EngineCache()
        results[engine] = [
            run_serial(
                engine,
                protocol_factory,
                n,
                seed,
                budget=budget,
                stop_on_convergence=stop_on_convergence,
                cache=cache,
                metrics_factory=metrics_factory,
                topology=topology,
            )
            for seed in seeds
        ]
    results["array-batched"] = run_batched(
        protocol_factory,
        n,
        seeds,
        budget=budget,
        stop_on_convergence=stop_on_convergence,
        metrics_factory=metrics_factory,
        topology=topology,
    )
    return results


def assert_batched_matches_serial(
    protocol_factory: Callable[[int], object],
    n: int,
    seeds: Sequence[int],
    *,
    budget: int,
    stop_on_convergence: bool = True,
    metrics_factory: Optional[Callable[[], object]] = None,
    topology=None,
) -> Dict[str, List[Trajectory]]:
    """The headline differential claim, as one call.

    Runs every capable trajectory engine plus the batched engine and
    asserts each against the reference lane-by-lane; returns the full
    result map for further inspection.
    """
    results = differential_trajectories(
        protocol_factory,
        n,
        seeds,
        budget=budget,
        stop_on_convergence=stop_on_convergence,
        metrics_factory=metrics_factory,
        topology=topology,
    )
    anchor = results["reference"]
    for engine, trajectories in results.items():
        if engine == "reference":
            continue
        assert len(trajectories) == len(anchor)
        for seed, expected, actual in zip(seeds, anchor, trajectories):
            assert_identical(
                expected,
                actual,
                context=f"{engine} n={n} seed={seed}",
            )
    return results


# ----------------------------------------------------------------------
# Distribution-class comparison
# ----------------------------------------------------------------------
def ks_2sample(a: Sequence[float], b: Sequence[float]) -> Tuple[float, float]:
    """Two-sample Kolmogorov–Smirnov statistic and asymptotic p-value.

    Implemented on numpy alone (the tier-1 environment does not ship
    scipy) with the standard asymptotic Kolmogorov tail
    ``Q(λ) = 2 Σ (-1)^{k-1} e^{-2 k² λ²}`` — accurate enough for the
    coarse significance levels differential tests use (≥ 1e-4).
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    statistic = float(np.abs(cdf_a - cdf_b).max())
    effective = a.size * b.size / (a.size + b.size)
    lam = (math.sqrt(effective) + 0.12 + 0.11 / math.sqrt(effective)) * statistic
    p_value = 0.0
    sign = 1.0
    for k in range(1, 101):
        term = sign * math.exp(-2.0 * (k * lam) ** 2)
        p_value += term
        if abs(term) < 1e-10:
            break
        sign = -sign
    return statistic, float(min(max(2.0 * p_value, 0.0), 1.0))


def assert_ks_consistent(
    a: Sequence[float],
    b: Sequence[float],
    *,
    alpha: float = 1e-3,
    context: str = "",
) -> None:
    """Fail when two observable ensembles differ beyond significance
    ``alpha`` (fixed-seed ensembles make this deterministic)."""
    statistic, p_value = ks_2sample(a, b)
    prefix = f"{context}: " if context else ""
    assert p_value >= alpha, (
        f"{prefix}KS statistic {statistic:.4f} has p={p_value:.2e} "
        f"< alpha={alpha:.0e}; the distributions differ"
    )
