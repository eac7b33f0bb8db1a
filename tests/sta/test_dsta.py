"""Unit tests for deterministic static timing analysis."""

import pytest

from repro.circuits.registry import BENCHMARK_NAMES, build_benchmark, c17
from repro.sta.dsta import DeterministicSTA
from tests.reference import ReferenceDSTA


@pytest.fixture
def dsta(delay_model):
    return DeterministicSTA(delay_model)


class TestArrivalTimes:
    def test_chain_arrivals_accumulate(self, dsta, chain_circuit):
        arrival, gate_delays = dsta.arrival_times(chain_circuit)
        assert arrival["in"] == 0.0
        assert arrival["n1"] == pytest.approx(gate_delays["i1"])
        assert arrival["n2"] == pytest.approx(gate_delays["i1"] + gate_delays["i2"])
        assert arrival["out1"] == pytest.approx(
            gate_delays["i1"] + gate_delays["i2"] + gate_delays["i3"]
        )

    def test_max_over_fanin(self, dsta, c17_circuit):
        arrival, gate_delays = dsta.arrival_times(c17_circuit)
        g22_inputs = max(arrival["N10"], arrival["N16"])
        assert arrival["N22"] == pytest.approx(g22_inputs + gate_delays["g22"])

    def test_max_delay(self, dsta, c17_circuit):
        arrival, _ = dsta.arrival_times(c17_circuit)
        assert dsta.max_delay(c17_circuit) == pytest.approx(
            max(arrival["N22"], arrival["N23"])
        )


class TestAnalyze:
    def test_default_period_gives_zero_worst_slack(self, dsta, c17_circuit):
        report = dsta.analyze(c17_circuit)
        assert report.clock_period == pytest.approx(report.worst_arrival)
        assert min(report.slack[n] for n in c17_circuit.primary_outputs) == pytest.approx(0.0, abs=1e-9)

    def test_explicit_period_sets_wns(self, dsta, c17_circuit):
        relaxed = dsta.analyze(c17_circuit, clock_period=10000.0)
        assert relaxed.wns == pytest.approx(10000.0 - relaxed.worst_arrival)
        assert all(s >= 0 for s in relaxed.slack.values())

    def test_tight_period_gives_negative_slack(self, dsta, c17_circuit):
        tight = dsta.analyze(c17_circuit, clock_period=1.0)
        assert tight.wns < 0
        assert min(tight.slack.values()) < 0

    def test_required_minus_arrival_equals_slack(self, dsta, c17_circuit):
        report = dsta.analyze(c17_circuit)
        for net, arr in report.arrival.items():
            assert report.slack[net] == pytest.approx(report.required[net] - arr)

    def test_no_outputs_raises(self, dsta):
        from repro.netlist.circuit import Circuit

        circuit = Circuit("empty", primary_inputs=["a"])
        circuit.add("g", "INV", ["a"], "y")
        with pytest.raises(ValueError):
            dsta.analyze(circuit)


class TestVectorizedPath:
    """The levelized IR pass must be *bit-identical* to the reference walk.

    ``max`` over floats and float addition are exact operations, so there
    is no tolerance here: every arrival must match to the last bit on every
    registry circuit.
    """

    @pytest.mark.parametrize("name", ["c17", *BENCHMARK_NAMES])
    def test_bit_identical_on_registry(self, delay_model, name):
        circuit = c17() if name == "c17" else build_benchmark(name)
        ref_arrival, ref_delays = ReferenceDSTA(delay_model).arrival_times(circuit)
        arrival, delays = DeterministicSTA(delay_model).arrival_times(circuit)
        assert delays == ref_delays
        assert arrival == ref_arrival

    def test_analyze_report_matches(self, delay_model, c17_circuit):
        reference = ReferenceDSTA(delay_model).analyze(c17_circuit)
        report = DeterministicSTA(delay_model).analyze(c17_circuit)
        assert report.arrival == reference.arrival
        assert report.required == reference.required
        assert report.slack == reference.slack
        assert report.critical_path == reference.critical_path
        assert report.worst_output == reference.worst_output
        assert report.worst_arrival == reference.worst_arrival

    def test_floating_inputs_read_as_zero(self, delay_model):
        from repro.netlist.circuit import Circuit

        circuit = Circuit("f", primary_inputs=["a"], primary_outputs=["y"])
        circuit.add("g", "NAND2", ["a", "ghost"], "y")
        ref_arrival, _ = ReferenceDSTA(delay_model).arrival_times(circuit)
        arrival, _ = DeterministicSTA(delay_model).arrival_times(circuit)
        assert arrival == ref_arrival
        assert "ghost" not in arrival  # reads as 0.0 via .get


class TestCriticalPath:
    def test_path_is_connected_and_ends_at_worst_output(self, dsta, c17_circuit):
        report = dsta.analyze(c17_circuit)
        path = report.critical_path
        assert path  # non-empty
        last_gate = c17_circuit.gate(path[-1])
        assert last_gate.output == report.worst_output
        # Consecutive gates must be connected.
        for upstream, downstream in zip(path, path[1:], strict=False):
            up = c17_circuit.gate(upstream)
            down = c17_circuit.gate(downstream)
            assert up.output in down.inputs

    def test_path_delay_close_to_worst_arrival(self, dsta, chain_circuit):
        report = dsta.analyze(chain_circuit)
        assert report.path_delay() == pytest.approx(report.worst_arrival)

    def test_critical_path_changes_with_sizing(self, dsta, c17_circuit):
        # The paper notes the WNS path must be re-traced during sizing because
        # it moves; upsizing the current path's gates shifts both arrivals and
        # (typically) the path itself through the extra load on side branches.
        report_before = dsta.analyze(c17_circuit)
        for name in report_before.critical_path:
            c17_circuit.set_size(name, 6)
        report_after = dsta.analyze(c17_circuit)
        assert (
            report_after.critical_path != report_before.critical_path
            or report_after.worst_arrival != pytest.approx(report_before.worst_arrival)
        )

    def test_critical_path_shortcut(self, dsta, c17_circuit):
        assert dsta.critical_path(c17_circuit) == dsta.analyze(c17_circuit).critical_path
