"""Unit tests for statistical slack propagation and slack PDFs."""

import math

import pytest

from repro.core.fassta import FASSTA
from repro.core.rv import NormalDelay
from repro.criticality.slack import compute_slacks, statistical_min
from repro.netlist.circuit import Circuit


def _analysis(circuit, delay_model, variation_model):
    return FASSTA(delay_model, variation_model).analyze(circuit)


class TestStatisticalMin:
    def test_min_is_negated_max(self):
        a = NormalDelay(10.0, 2.0)
        b = NormalDelay(12.0, 3.0)
        lo = statistical_min(a, b)
        hi = a.maximum(b)
        # E[min] + E[max] = E[A] + E[B] holds exactly for any pair.
        assert lo.mean + hi.mean == pytest.approx(a.mean + b.mean, abs=1e-9)
        assert lo.mean < min(a.mean, b.mean) + 1e-9

    def test_dominant_operand(self):
        a = NormalDelay(1.0, 0.5)
        b = NormalDelay(1000.0, 0.5)
        lo = statistical_min(a, b)
        assert lo.mean == pytest.approx(a.mean)
        assert lo.sigma == pytest.approx(a.sigma)


class TestComputeSlacks:
    def test_output_slack_matches_period_minus_arrival(
        self, c17_circuit, delay_model, variation_model
    ):
        res = _analysis(c17_circuit, delay_model, variation_model)
        period = 300.0
        slacks = compute_slacks(
            c17_circuit, res.arrivals, res.gate_delays, clock_period=period
        )
        for net in c17_circuit.primary_outputs:
            arr = res.arrivals[net]
            rv = slacks.slack_of(net)
            assert rv.mean == pytest.approx(period - arr.mean, abs=1e-9)
            assert rv.sigma == pytest.approx(arr.sigma, abs=1e-9)

    def test_default_period_is_worst_weighted_cost(
        self, c17_circuit, delay_model, variation_model
    ):
        res = _analysis(c17_circuit, delay_model, variation_model)
        lam = 3.0
        slacks = compute_slacks(
            c17_circuit, res.arrivals, res.gate_delays, lam=lam
        )
        expected = max(
            res.arrivals[net].mean + lam * res.arrivals[net].sigma
            for net in c17_circuit.primary_outputs
        )
        assert slacks.clock_period == pytest.approx(expected)
        # At that period every slack mean is non-negative on the chain to
        # the worst output only in expectation terms; the worst *weighted*
        # slack is zero by construction.
        worst_net = max(
            c17_circuit.primary_outputs,
            key=lambda n: res.arrivals[n].mean + lam * res.arrivals[n].sigma,
        )
        rv = slacks.slack_of(worst_net)
        assert rv.mean - lam * rv.sigma <= 1e-9

    def test_chain_required_times_accumulate_delays(
        self, delay_model, variation_model
    ):
        circuit = Circuit("chain", primary_inputs=["a"], primary_outputs=["y"])
        circuit.add("g1", "INV", ["a"], "n1")
        circuit.add("g2", "INV", ["n1"], "y")
        res = _analysis(circuit, delay_model, variation_model)
        period = 100.0
        slacks = compute_slacks(
            circuit, res.arrivals, res.gate_delays, clock_period=period
        )
        d2 = res.gate_delays["g2"]
        r_n1 = slacks.required["n1"]
        assert r_n1.mean == pytest.approx(period - d2.mean, abs=1e-9)
        assert r_n1.sigma == pytest.approx(d2.sigma, abs=1e-9)
        d1 = res.gate_delays["g1"]
        r_a = slacks.required["a"]
        assert r_a.mean == pytest.approx(period - d2.mean - d1.mean, abs=1e-9)
        assert r_a.sigma == pytest.approx(
            math.sqrt(d1.variance + d2.variance), abs=1e-9
        )

    def test_fanout_takes_statistical_min(self, delay_model, variation_model):
        circuit = Circuit(
            "fan", primary_inputs=["a"], primary_outputs=["y1", "y2"]
        )
        circuit.add("g0", "INV", ["a"], "n")
        circuit.add("g1", "INV", ["n"], "y1", size_index=0)
        circuit.add("g2", "INV", ["n"], "y2", size_index=6)
        res = _analysis(circuit, delay_model, variation_model)
        period = 200.0
        slacks = compute_slacks(
            circuit, res.arrivals, res.gate_delays, clock_period=period
        )
        c1 = NormalDelay(
            period - res.gate_delays["g1"].mean, res.gate_delays["g1"].sigma
        )
        c2 = NormalDelay(
            period - res.gate_delays["g2"].mean, res.gate_delays["g2"].sigma
        )
        expected = statistical_min(c1, c2)
        assert slacks.required["n"].mean == pytest.approx(expected.mean, abs=1e-9)
        assert slacks.required["n"].sigma == pytest.approx(
            expected.sigma, abs=1e-9
        )

    def test_slack_pdfs_track_slack_moments(
        self, c17_circuit, delay_model, variation_model
    ):
        res = _analysis(c17_circuit, delay_model, variation_model)
        slacks = compute_slacks(c17_circuit, res.arrivals, res.gate_delays)
        assert set(slacks.slack_pdfs) == set(c17_circuit.gates)
        for name, pdf in slacks.slack_pdfs.items():
            rv = slacks.slack[c17_circuit.gate(name).output]
            assert pdf.mean() == pytest.approx(rv.mean, abs=1e-6)
            # Discretization trims tails slightly; allow a few percent.
            assert pdf.std() == pytest.approx(rv.sigma, rel=0.05)

    def test_negative_slack_probability(self, c17_circuit, delay_model, variation_model):
        res = _analysis(c17_circuit, delay_model, variation_model)
        tight = compute_slacks(
            c17_circuit, res.arrivals, res.gate_delays, clock_period=1.0
        )
        loose = compute_slacks(
            c17_circuit, res.arrivals, res.gate_delays, clock_period=1e6
        )
        worst_net = tight.worst_slacks(1)[0][0]
        assert tight.negative_slack_probability(worst_net) > 0.99
        assert loose.negative_slack_probability(worst_net) < 1e-6

    def test_dangling_gate_output_is_pinned_at_period(
        self, delay_model, variation_model
    ):
        # A gate feeding nothing (legal netlist state) must still get a
        # period-anchored slack, not a missing entry reported as 0±0.
        circuit = Circuit("dangle", primary_inputs=["a"], primary_outputs=["y"])
        circuit.add("g1", "INV", ["a"], "y")
        circuit.add("g2", "INV", ["a"], "unused")
        res = _analysis(circuit, delay_model, variation_model)
        period = 150.0
        slacks = compute_slacks(
            circuit, res.arrivals, res.gate_delays, clock_period=period
        )
        arr = res.arrivals["unused"]
        rv = slacks.slack_of("unused")
        assert rv.mean == pytest.approx(period - arr.mean, abs=1e-9)
        assert rv.sigma == pytest.approx(arr.sigma, abs=1e-9)
        pdf = slacks.slack_pdfs["g2"]
        assert pdf.mean() == pytest.approx(rv.mean, abs=1e-6)

    def test_worst_slacks_sorted(self, c17_circuit, delay_model, variation_model):
        res = _analysis(c17_circuit, delay_model, variation_model)
        slacks = compute_slacks(c17_circuit, res.arrivals, res.gate_delays)
        means = [rv.mean for _, rv in slacks.worst_slacks(5)]
        assert means == sorted(means)
