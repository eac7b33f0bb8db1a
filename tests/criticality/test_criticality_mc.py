"""Analytic-vs-Monte-Carlo criticality agreement (the acceptance pin).

The analytic criticalities inherit the engines' Clark/independence
approximations; the MC backtrace is exact per draw.  These tests pin the
agreement on registry circuits: per-gate probabilities within a small mean
absolute error (sampling noise at 4000 draws is ~0.008), output selection
frequencies, and per-path frequencies on the exactly-tractable c17.
"""

import pytest

from repro.core.fassta import FASSTA
from repro.criticality.analysis import CriticalityAnalyzer
from repro.criticality.mc import MonteCarloCriticality
from repro.criticality.paths import extract_top_paths


@pytest.fixture(scope="module")
def mc_setup(delay_model, variation_model):
    def build(name, samples=4000, k=5):
        from repro.circuits.registry import build_benchmark

        circuit = build_benchmark(name)
        res = FASSTA(delay_model, variation_model).analyze(
            circuit
        )
        crit = CriticalityAnalyzer(circuit).analyze(res.arrivals)
        paths = extract_top_paths(circuit, crit, res.arrivals, k=k)
        mc = MonteCarloCriticality(delay_model, variation_model).run(
            circuit, num_samples=samples, seed=7, paths=paths
        )
        return circuit, crit, paths, mc

    return build


class TestMonteCarloAgreement:
    def test_c17_gate_criticality_matches_closely(self, mc_setup):
        _, crit, _, mc = mc_setup("c17")
        assert mc.max_abs_gate_error(crit.gate_criticality) < 0.06
        assert mc.mean_abs_gate_error(crit.gate_criticality) < 0.03

    def test_c17_output_frequencies_match(self, mc_setup):
        _, crit, _, mc = mc_setup("c17")
        for net, prob in crit.output_probabilities.items():
            assert mc.output_frequency[net] == pytest.approx(prob, abs=0.05)

    def test_c17_path_frequencies_match(self, mc_setup):
        _, _, paths, mc = mc_setup("c17")
        assert len(mc.path_frequency) == len(paths)
        for freq, path in zip(mc.path_frequency, paths, strict=True):
            assert freq == pytest.approx(path.criticality, abs=0.06)

    @pytest.mark.parametrize("name", ["alu2", "c432"])
    def test_registry_gate_criticality_within_tolerance(self, mc_setup, name):
        # Reconvergent fanout correlation (ignored by the analytic model)
        # dominates the error here; the mean error stays small and even the
        # worst gate stays within the documented bound.
        _, crit, _, mc = mc_setup(name)
        assert mc.mean_abs_gate_error(crit.gate_criticality) < 0.04
        assert mc.max_abs_gate_error(crit.gate_criticality) < 0.35

    def test_registry_output_frequencies_track(self, mc_setup):
        # ALU outputs share most of their logic, so their arrivals are
        # strongly correlated and the independent-normal selection spreads
        # mass MC concentrates.  Ranking and aggregate deviation still pin
        # the agreement.
        circuit, crit, _, mc = mc_setup("alu2")
        analytic_top = max(
            crit.output_probabilities, key=crit.output_probabilities.get
        )
        mc_top = max(mc.output_frequency, key=mc.output_frequency.get)
        assert analytic_top == mc_top
        deviations = [
            abs(
                crit.output_probabilities.get(net, 0.0)
                - mc.output_frequency.get(net, 0.0)
            )
            for net in circuit.primary_outputs
        ]
        assert sum(deviations) / len(deviations) < 0.1

    def test_output_frequencies_sum_to_one(self, mc_setup):
        _, _, _, mc = mc_setup("c432", samples=2000)
        # Every draw selects exactly one slowest output.
        assert sum(mc.output_frequency.values()) == pytest.approx(1.0, abs=1e-12)

    def test_seeds_are_reproducible(self, delay_model, variation_model, c17_circuit):
        runner = MonteCarloCriticality(delay_model, variation_model)
        a = runner.run(c17_circuit, num_samples=500, seed=3)
        b = runner.run(c17_circuit, num_samples=500, seed=3)
        assert a.gate_frequency == b.gate_frequency
        assert a.output_frequency == b.output_frequency

    def test_invalid_sample_count(self, delay_model, variation_model, c17_circuit):
        runner = MonteCarloCriticality(delay_model, variation_model)
        with pytest.raises(ValueError):
            runner.run(c17_circuit, num_samples=1)
