"""Unit tests for top-k statistical path extraction."""

import pytest

from repro.core.fassta import FASSTA
from repro.criticality.analysis import CriticalityAnalyzer
from repro.criticality.paths import extract_top_paths, total_path_mass
from repro.netlist.circuit import Circuit


def _analysis(circuit, delay_model, variation_model):
    res = FASSTA(delay_model, variation_model).analyze(circuit)
    crit = CriticalityAnalyzer(circuit).analyze(res.arrivals)
    return res, crit


class TestExtractTopPaths:
    def test_masses_non_increasing(self, c17_circuit, delay_model, variation_model):
        res, crit = _analysis(c17_circuit, delay_model, variation_model)
        paths = extract_top_paths(c17_circuit, crit, res.arrivals, k=8)
        masses = [p.criticality for p in paths]
        assert masses == sorted(masses, reverse=True)

    def test_all_paths_sum_to_one(self, c17_circuit, delay_model, variation_model):
        # With k larger than the number of structural paths the masses
        # partition the "which path is critical" event.
        res, crit = _analysis(c17_circuit, delay_model, variation_model)
        paths = extract_top_paths(c17_circuit, crit, res.arrivals, k=1000)
        assert total_path_mass(paths) == pytest.approx(1.0, abs=1e-9)

    def test_paths_are_structurally_valid(
        self, c17_circuit, delay_model, variation_model
    ):
        res, crit = _analysis(c17_circuit, delay_model, variation_model)
        for path in extract_top_paths(c17_circuit, crit, res.arrivals, k=5):
            # Ends at the output driver, starts at a gate fed by the source.
            assert c17_circuit.driver_of(path.output_net).name == path.gates[-1]
            assert path.source_net in c17_circuit.gate(path.gates[0]).inputs
            assert c17_circuit.driver_of(path.source_net) is None
            # Consecutive gates are actually connected.
            for upstream, downstream in zip(path.gates, path.gates[1:], strict=False):
                out_net = c17_circuit.gate(upstream).output
                assert out_net in c17_circuit.gate(downstream).inputs
            assert path.arrival_rv == res.arrivals[path.output_net]

    def test_path_mass_is_product_of_edge_probabilities(
        self, c17_circuit, delay_model, variation_model
    ):
        res, crit = _analysis(c17_circuit, delay_model, variation_model)
        for path in extract_top_paths(c17_circuit, crit, res.arrivals, k=4):
            mass = crit.output_probabilities[path.output_net]
            chosen = path.source_net
            for gate_name in path.gates:
                mass *= crit.edge_probabilities[gate_name][chosen]
                chosen = c17_circuit.gate(gate_name).output
            assert path.criticality == pytest.approx(mass, rel=1e-12)

    def test_single_path_circuit(self, delay_model, variation_model):
        circuit = Circuit("chain", primary_inputs=["a"], primary_outputs=["y"])
        circuit.add("g1", "INV", ["a"], "n1")
        circuit.add("g2", "INV", ["n1"], "y")
        res, crit = _analysis(circuit, delay_model, variation_model)
        paths = extract_top_paths(circuit, crit, res.arrivals, k=5)
        assert len(paths) == 1
        assert paths[0].gates == ["g1", "g2"]
        assert paths[0].criticality == pytest.approx(1.0)
        assert paths[0].source_net == "a"

    def test_min_criticality_prunes(self, c17_circuit, delay_model, variation_model):
        res, crit = _analysis(c17_circuit, delay_model, variation_model)
        everything = extract_top_paths(c17_circuit, crit, res.arrivals, k=1000)
        floor = everything[1].criticality
        pruned = extract_top_paths(
            c17_circuit, crit, res.arrivals, k=1000, min_criticality=floor
        )
        assert len(pruned) < len(everything)
        for path in pruned:
            assert path.criticality >= floor

    def test_outputs_filter(self, c17_circuit, delay_model, variation_model):
        res, crit = _analysis(c17_circuit, delay_model, variation_model)
        only_n22 = extract_top_paths(
            c17_circuit, crit, res.arrivals, k=100, outputs=["N22"]
        )
        assert only_n22
        assert all(p.output_net == "N22" for p in only_n22)
        assert total_path_mass(only_n22) == pytest.approx(
            crit.output_probabilities["N22"], abs=1e-12
        )

    def test_invalid_arguments(self, c17_circuit, delay_model, variation_model):
        res, crit = _analysis(c17_circuit, delay_model, variation_model)
        with pytest.raises(ValueError):
            extract_top_paths(c17_circuit, crit, res.arrivals, k=0)
        with pytest.raises(ValueError):
            extract_top_paths(
                c17_circuit, crit, res.arrivals, k=1, min_criticality=-0.1
            )

    def test_expansion_budget_falls_back_to_greedy(
        self, c17_circuit, delay_model, variation_model
    ):
        res, crit = _analysis(c17_circuit, delay_model, variation_model)
        exact = extract_top_paths(c17_circuit, crit, res.arrivals, k=4)
        budgeted = extract_top_paths(
            c17_circuit, crit, res.arrivals, k=4, max_expansions=1
        )
        # One pop cannot complete anything on c17; the greedy fallback still
        # returns valid, structurally-connected paths flagged as inexact.
        assert budgeted
        assert all(not p.exact for p in budgeted)
        assert all(p.exact for p in exact)
        for path in budgeted:
            assert c17_circuit.driver_of(path.output_net).name == path.gates[-1]
            for upstream, downstream in zip(path.gates, path.gates[1:], strict=False):
                out_net = c17_circuit.gate(upstream).output
                assert out_net in c17_circuit.gate(downstream).inputs
        # The greedy top-1 follows locally-best edges, which on c17 is also
        # the globally heaviest path.
        assert budgeted[0].gates == exact[0].gates
        assert budgeted[0].criticality == pytest.approx(exact[0].criticality)
        with pytest.raises(ValueError):
            extract_top_paths(
                c17_circuit, crit, res.arrivals, k=1, max_expansions=0
            )

    def test_top1_on_larger_circuit_is_heaviest(
        self, delay_model, variation_model
    ):
        from repro.circuits.registry import build_benchmark

        circuit = build_benchmark("alu2")
        res, crit = _analysis(circuit, delay_model, variation_model)
        top3 = extract_top_paths(circuit, crit, res.arrivals, k=3)
        top50 = extract_top_paths(circuit, crit, res.arrivals, k=50)
        assert [p.criticality for p in top50[:3]] == pytest.approx(
            [p.criticality for p in top3]
        )
        assert total_path_mass(top50) <= 1.0 + 1e-9
