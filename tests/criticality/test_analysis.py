"""Unit tests for the statistical criticality analyzer."""

import math

import pytest
from scipy.stats import norm

from repro.core.fassta import FASSTA
from repro.core.rv import NormalDelay
from repro.criticality.analysis import (
    CriticalityAnalyzer,
    selection_probabilities,
)
from repro.netlist.circuit import Circuit


def _fassta_arrivals(circuit, delay_model, variation_model):
    return FASSTA(delay_model, variation_model).analyze(
        circuit
    )


class TestSelectionProbabilities:
    def test_two_rvs_match_closed_form(self):
        a = NormalDelay(100.0, 10.0)
        b = NormalDelay(90.0, 5.0)
        probs = selection_probabilities([a, b])
        expected = norm.cdf((a.mean - b.mean) / math.hypot(a.sigma, b.sigma))
        assert probs[0] == pytest.approx(expected, abs=1e-12)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_dominant_rv_takes_all_mass(self):
        probs = selection_probabilities(
            [NormalDelay(1000.0, 1.0), NormalDelay(10.0, 1.0)]
        )
        assert probs[0] == pytest.approx(1.0, abs=1e-9)

    def test_symmetric_rvs_split_evenly(self):
        rvs = [NormalDelay(50.0, 4.0)] * 4
        probs = selection_probabilities(rvs)
        for p in probs:
            assert p == pytest.approx(0.25, abs=1e-9)

    def test_single_rv(self):
        assert selection_probabilities([NormalDelay(5.0, 1.0)])[0] == 1.0

    def test_deterministic_tie_goes_to_first(self):
        # All-zero-variance ties route to the first position, matching the
        # Monte-Carlo argmax backtrace and the scalar max fold.
        probs = selection_probabilities(
            [NormalDelay(3.0, 0.0), NormalDelay(3.0, 0.0), NormalDelay(1.0, 0.0)]
        )
        assert list(probs) == [1.0, 0.0, 0.0]

    def test_deterministic_strict_order(self):
        probs = selection_probabilities(
            [NormalDelay(1.0, 0.0), NormalDelay(2.0, 0.0)]
        )
        assert list(probs) == [0.0, 1.0]


class TestCriticalityAnalyzer:
    def test_mass_conserved_on_registry_circuits(self, delay_model, variation_model):
        from repro.circuits.registry import build_benchmark

        for name in ("c17", "alu2", "c499"):
            circuit = build_benchmark(name)
            res = _fassta_arrivals(circuit, delay_model, variation_model)
            crit = CriticalityAnalyzer(circuit).analyze(res.arrivals)
            assert crit.total_source_mass() == pytest.approx(1.0, abs=1e-9)

    def test_single_output_cone_mass_is_one(
        self, c17_circuit, delay_model, variation_model
    ):
        res = _fassta_arrivals(c17_circuit, delay_model, variation_model)
        analyzer = CriticalityAnalyzer(c17_circuit)
        for net in c17_circuit.primary_outputs:
            cone = analyzer.analyze(res.arrivals, outputs=[net])
            assert cone.output_probabilities == {net: 1.0}
            assert cone.total_source_mass() == pytest.approx(1.0, abs=1e-12)

    def test_edge_probabilities_sum_to_one_per_gate(
        self, c17_circuit, delay_model, variation_model
    ):
        res = _fassta_arrivals(c17_circuit, delay_model, variation_model)
        crit = CriticalityAnalyzer(c17_circuit).analyze(res.arrivals)
        for gate_name, edges in crit.edge_probabilities.items():
            assert sum(edges.values()) == pytest.approx(1.0, abs=1e-9), gate_name

    def test_output_driver_inherits_output_probability(
        self, c17_circuit, delay_model, variation_model
    ):
        res = _fassta_arrivals(c17_circuit, delay_model, variation_model)
        crit = CriticalityAnalyzer(c17_circuit).analyze(res.arrivals)
        for net, prob in crit.output_probabilities.items():
            driver = c17_circuit.driver_of(net)
            assert crit.gate_criticality[driver.name] == pytest.approx(prob)

    def test_chain_criticality_is_one_everywhere(
        self, delay_model, variation_model
    ):
        circuit = Circuit("chain", primary_inputs=["a"], primary_outputs=["y"])
        circuit.add("g1", "INV", ["a"], "n1")
        circuit.add("g2", "INV", ["n1"], "y")
        res = _fassta_arrivals(circuit, delay_model, variation_model)
        crit = CriticalityAnalyzer(circuit).analyze(res.arrivals)
        assert crit.gate_criticality == pytest.approx({"g1": 1.0, "g2": 1.0})
        assert crit.source_criticality["a"] == pytest.approx(1.0)

    def test_two_input_gate_matches_closed_form(
        self, delay_model, variation_model
    ):
        # One NAND2 fed by two inverters of very different drive: the input
        # selection probabilities must match the two-rv closed form.
        circuit = Circuit(
            "pair", primary_inputs=["a", "b"], primary_outputs=["y"]
        )
        circuit.add("slow", "INV", ["a"], "n1", size_index=0)
        circuit.add("fast", "INV", ["b"], "n2", size_index=6)
        circuit.add("g", "NAND2", ["n1", "n2"], "y")
        res = _fassta_arrivals(circuit, delay_model, variation_model)
        crit = CriticalityAnalyzer(circuit).analyze(res.arrivals)
        rv1 = res.arrivals["n1"]
        rv2 = res.arrivals["n2"]
        expected = selection_probabilities([rv1, rv2])
        edges = crit.edge_probabilities["g"]
        assert edges["n1"] == pytest.approx(float(expected[0]), abs=1e-12)
        assert edges["n2"] == pytest.approx(float(expected[1]), abs=1e-12)
        # And the inverters inherit exactly that split.
        assert crit.gate_criticality["slow"] == pytest.approx(edges["n1"])
        assert crit.gate_criticality["fast"] == pytest.approx(edges["n2"])

    def test_unknown_output_raises(self, c17_circuit, delay_model, variation_model):
        res = _fassta_arrivals(c17_circuit, delay_model, variation_model)
        with pytest.raises(KeyError):
            CriticalityAnalyzer(c17_circuit).analyze(
                res.arrivals, outputs=["nope"]
            )

    def test_negative_output_weight_rejected(
        self, c17_circuit, delay_model, variation_model
    ):
        res = _fassta_arrivals(c17_circuit, delay_model, variation_model)
        with pytest.raises(ValueError):
            CriticalityAnalyzer(c17_circuit).analyze(
                res.arrivals, output_weights={"N22": -0.5}
            )

    def test_plan_recompiles_after_structural_edit(
        self, delay_model, variation_model
    ):
        circuit = Circuit("grow", primary_inputs=["a"], primary_outputs=["y"])
        circuit.add("g1", "INV", ["a"], "y")
        analyzer = CriticalityAnalyzer(circuit)
        res = _fassta_arrivals(circuit, delay_model, variation_model)
        first = analyzer.analyze(res.arrivals)
        assert set(first.gate_criticality) == {"g1"}

        circuit.add("g2", "INV", ["a"], "z")
        circuit.add_primary_output("z")
        res = _fassta_arrivals(circuit, delay_model, variation_model)
        second = analyzer.analyze(res.arrivals)
        assert set(second.gate_criticality) == {"g1", "g2"}
        assert second.total_source_mass() == pytest.approx(1.0, abs=1e-12)

    def test_gates_above_and_top_gates(self, c17_circuit, delay_model, variation_model):
        res = _fassta_arrivals(c17_circuit, delay_model, variation_model)
        crit = CriticalityAnalyzer(c17_circuit).analyze(res.arrivals)
        top = crit.top_gates(3)
        assert len(top) == 3
        assert top[0][1] >= top[1][1] >= top[2][1]
        floor = top[1][1]
        above = crit.gates_above(floor)
        assert set(g for g, v in top[:2]).issubset(set(above))
        for name in above:
            assert crit.gate_criticality[name] >= floor
