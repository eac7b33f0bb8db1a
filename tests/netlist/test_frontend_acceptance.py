"""Acceptance test for the unified netlist front end.

A hierarchical Verilog design (module instantiation, parameterized widths,
buses, ``assign`` aliases, an aliased primary output) must lower to a
circuit *bit-identical* to its hand-flattened equivalent: same nets, same
gates, and — run through both timing engines — identical DSTA arrival
times and FASSTA moments to 1e-9.
"""

import pytest

from repro.core.fassta import FASSTA
from repro.netlist.verilog import parse_verilog
from repro.sta.dsta import DeterministicSTA

#: Two instantiations of a parameterized 2-bit stage, connected through
#: buses, with an internal alias (t = d) and an aliased primary output (z).
HIERARCHICAL = """
module stage #(parameter W = 2) (input [W-1:0] d, input en,
                                 output [W-1:0] q);
  wire [W-1:0] t;
  assign t = d;
  AND2 a0 (.Y(q[0]), .A(t[0]), .B(en));
  AND2 a1 (.Y(q[1]), .A(t[1]), .B(en));
endmodule

module top (input [1:0] x, input e, output [1:0] y, output z);
  wire [1:0] m;
  stage s0 (.d(x), .en(e), .q(m));
  stage s1 (.d(m), .en(e), .q(y));
  assign z = y[0];
endmodule
"""

#: The same design flattened by hand: instance-path gate names, bit-blasted
#: nets, aliases resolved, and the front end's PO repair buffer written out.
HAND_FLATTENED = """
module top (x[1], x[0], e, y[1], y[0], z);
  input x[1], x[0], e;
  output y[1], y[0], z;
  wire m[1], m[0];
  AND2 s0.a0 (.Y(m[0]), .A(x[0]), .B(e));
  AND2 s0.a1 (.Y(m[1]), .A(x[1]), .B(e));
  AND2 s1.a0 (.Y(y[0]), .A(m[0]), .B(e));
  AND2 s1.a1 (.Y(y[1]), .A(m[1]), .B(e));
  BUF __fe_buf_z (.Y(z), .A(y[0]));
endmodule
"""


@pytest.fixture(scope="module")
def hierarchical():
    return parse_verilog(HIERARCHICAL, top="top")


@pytest.fixture(scope="module")
def flattened():
    return parse_verilog(HAND_FLATTENED)


class TestBitIdentity:
    def test_ports_identical(self, hierarchical, flattened):
        assert hierarchical.primary_inputs == flattened.primary_inputs
        assert hierarchical.primary_outputs == flattened.primary_outputs

    def test_gates_identical(self, hierarchical, flattened):
        assert sorted(hierarchical.gates) == sorted(flattened.gates)
        for name, gate in hierarchical.gates.items():
            twin = flattened.gate(name)
            assert gate.cell_type == twin.cell_type
            assert gate.inputs == twin.inputs
            assert gate.output == twin.output

    def test_dsta_arrivals_match(self, hierarchical, flattened, delay_model):
        sta = DeterministicSTA(delay_model)
        a = sta.analyze(hierarchical)
        b = sta.analyze(flattened)
        assert a.arrival.keys() == b.arrival.keys()
        for net in a.arrival:
            assert a.arrival[net] == pytest.approx(b.arrival[net], abs=1e-9)
        assert a.worst_output == b.worst_output

    def test_fassta_moments_match(self, hierarchical, flattened,
                                  delay_model, variation_model):
        engine = FASSTA(delay_model, variation_model)
        a = engine.analyze(hierarchical)
        b = engine.analyze(flattened)
        for po in hierarchical.primary_outputs:
            rv_a, rv_b = a.arrivals[po], b.arrivals[po]
            assert rv_a.mean == pytest.approx(rv_b.mean, abs=1e-9)
            assert rv_a.sigma == pytest.approx(rv_b.sigma, abs=1e-9)


class TestFrontendWork:
    def test_alias_merging_happened(self, hierarchical):
        # The stage's internal t nets were canonicalized away entirely.
        nets = {g.output for g in hierarchical.gates.values()}
        for gate in hierarchical.gates.values():
            nets.update(gate.inputs)
        assert not any(".t[" in net for net in nets)

    def test_po_repair_buffer_present(self, hierarchical):
        gate = hierarchical.gate("__fe_buf_z")
        assert gate.cell_type == "BUF"
        assert gate.inputs == ["y[0]"]
        assert gate.output == "z"
