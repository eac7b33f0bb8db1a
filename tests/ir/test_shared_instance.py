"""One circuit structure, one CompiledCircuit — shared by every engine.

The whole point of the IR layer: FASSTA, FULLSSTA, DSTA, the Monte-Carlo
timers and the criticality analyzer must all consume the *same*
:class:`~repro.ir.compiled.CompiledCircuit` instance for a given circuit
structure, lowered exactly once.
"""

import pytest

import repro.ir.compiled as compiled_mod
from repro.core.fassta import FASSTA
from repro.core.fullssta import FULLSSTA
from repro.criticality.analysis import CriticalityAnalyzer
from repro.criticality.mc import MonteCarloCriticality
from repro.montecarlo.mc import MonteCarloTimer
from repro.sta.dsta import DeterministicSTA


@pytest.fixture
def lowering_counter(monkeypatch):
    """Count lower_circuit calls; Circuit.compiled imports it at call time."""
    calls = []
    real = compiled_mod.lower_circuit

    def counting(circuit):
        calls.append(circuit.name)
        return real(circuit)

    monkeypatch.setattr(compiled_mod, "lower_circuit", counting)
    return calls


class TestSharedInstance:
    def test_all_engines_share_one_lowering(
        self, delay_model, variation_model, c17_circuit, lowering_counter
    ):
        plan = c17_circuit.compiled()

        fassta = FASSTA(delay_model, variation_model)
        fassta_result = fassta.analyze(c17_circuit)
        fullssta = FULLSSTA(delay_model, variation_model)
        fullssta_result = fullssta.analyze(c17_circuit)
        DeterministicSTA(delay_model).analyze(c17_circuit)
        MonteCarloTimer(delay_model, variation_model).run(
            c17_circuit, num_samples=16
        )
        MonteCarloCriticality(delay_model, variation_model).run(
            c17_circuit, num_samples=16
        )
        CriticalityAnalyzer(c17_circuit).analyze(fassta_result.arrivals)
        CriticalityAnalyzer(c17_circuit).analyze(fullssta_result.arrival_moments)

        # Every engine ran off the cached instance: exactly one lowering
        # (the explicit compiled() call above), and the cache still holds
        # the same object afterwards.
        assert lowering_counter == ["c17"]
        assert c17_circuit.compiled() is plan

    def test_size_changes_do_not_relower_mid_flow(
        self, delay_model, variation_model, c17_circuit, lowering_counter
    ):
        fassta = FASSTA(delay_model, variation_model)
        plan = c17_circuit.compiled()
        before = fassta.analyze(c17_circuit).mean
        for name in c17_circuit.gates:
            c17_circuit.set_size(name, 4)
        after = fassta.analyze(c17_circuit).mean
        assert after != before  # sizes actually took effect
        assert c17_circuit.compiled() is plan  # refreshed, not relowered
        assert lowering_counter == ["c17"]

    def test_flow_run_lowers_once(self, lowering_counter):
        from repro.circuits.registry import c17
        from repro.flow import run_sizing_flow

        circuit = c17()
        run_sizing_flow(circuit, run_baseline=False, monte_carlo_samples=32)
        assert lowering_counter.count("c17") == 1
