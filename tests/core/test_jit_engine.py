"""Degradation tests for the optional numba-compiled engine variant.

numba is deliberately absent from the tier-1 environment (and from CI's
``tests`` job), so this suite *is* the no-numba leg: it pins down the
contract that a missing optional dependency costs speed, never
correctness and never an ``ImportError`` —

* the probe reports a stable human-readable reason;
* the ``array-jit`` backend answers every capability probe with
  ``supported=False`` carrying that reason, so ``auto`` resolution skips
  it silently while an explicit request fails through the ordinary
  unsupported-cell path;
* direct :class:`JitArraySimulator` construction still succeeds and runs
  bit-identically to the plain :class:`ArraySimulator` on the
  interpreted paths.

When numba *is* importable (a fuller local environment), the same suite
flips to asserting the backend is supported — both legs of the gate stay
covered wherever the tests run.
"""

import pytest

from harness.differential import assert_identical, snapshot
from repro.core import backends
from repro.core.array_engine import ArraySimulator
from repro.core.errors import ExperimentError
from repro.core.jit_engine import (
    JitArraySimulator,
    numba_available,
    numba_unavailable_reason,
)
from repro.protocols.primitives.one_way_epidemic import OneWayEpidemicProtocol
from repro.protocols.ranking.stable_ranking import StableRanking

HAVE_NUMBA = numba_available()


class TestProbe:
    def test_reason_and_availability_agree(self):
        reason = numba_unavailable_reason()
        if HAVE_NUMBA:
            assert reason is None
        else:
            assert reason == "numba is not installed"

    def test_probe_is_memoized(self):
        assert numba_available() == numba_available()
        assert numba_unavailable_reason() == numba_unavailable_reason()


class TestCapabilityGate:
    def test_capability_matrix_reports_the_gate(self):
        matrix = backends.capability_matrix(StableRanking(8), "fresh", 8)
        capability = matrix["array-jit"]
        if HAVE_NUMBA:
            assert capability.supported
            assert capability.exactness == "trajectory"
        else:
            assert not capability.supported
            assert capability.reason == "numba is not installed"

    def test_auto_never_resolves_to_missing_jit(self):
        backend, _ = backends.resolve_backend(
            StableRanking(8), "fresh", 8, engine="auto"
        )
        if not HAVE_NUMBA:
            assert backend.name != "array-jit"

    @pytest.mark.skipif(HAVE_NUMBA, reason="numba is installed here")
    def test_explicit_request_fails_with_the_reason(self):
        with pytest.raises(ExperimentError, match="numba is not installed"):
            backends.resolve_backend(
                StableRanking(8), "fresh", 8, engine="array-jit"
            )

    @pytest.mark.skipif(HAVE_NUMBA, reason="numba is installed here")
    def test_study_spec_rejects_jit_with_the_reason(self):
        from repro.experiments.study import ExperimentSpec

        with pytest.raises(ExperimentError, match="numba is not installed"):
            ExperimentSpec(
                variant="jit",
                protocol="stable-ranking",
                engine="array-jit",
                n_values=(8,),
                seeds=1,
            )


class TestGracefulConstruction:
    @pytest.mark.parametrize(
        "factory,n,budget",
        [(StableRanking, 16, 40_000), (OneWayEpidemicProtocol, 64, 50_000)],
    )
    def test_runs_bit_identically_to_plain_array(self, factory, n, budget):
        # Without numba the subclass *is* the parent (interpreted walks);
        # with numba the compiled lazy walk must reproduce them exactly.
        seed = 7
        plain = ArraySimulator(
            factory(n), random_state=seed, convergence_interval=n
        )
        jit = JitArraySimulator(
            factory(n), random_state=seed, convergence_interval=n
        )
        expected = snapshot(
            plain.run(max_interactions=budget, stop_on_convergence=False)
        )
        actual = snapshot(
            jit.run(max_interactions=budget, stop_on_convergence=False)
        )
        assert_identical(expected, actual, context=f"jit {factory.__name__}")

    def test_backend_create_degrades_instead_of_raising(self):
        # The registry answers unsupported first, but direct create() must
        # also never surface an ImportError.
        simulator = backends.get_backend("array-jit").create(
            OneWayEpidemicProtocol(16), random_state=0
        )
        result = simulator.run(max_interactions=5_000)
        assert result.converged
