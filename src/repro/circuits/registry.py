"""Benchmark registry: the paper's circuit names mapped onto generators.

Table 1 of the paper evaluates 13 circuits: three ALUs and ten ISCAS-85
netlists.  The original synthesized netlists are proprietary (they were
mapped with Design Compiler onto an industrial library), so this registry
builds *structural stand-ins* from the parametric generators, chosen so
that gate count, logic depth and circuit style are comparable to the
originals (see DESIGN.md §2 for the substitution rationale).

``build_benchmark("c432")`` returns a fresh circuit; ``benchmark_summary()``
tabulates generated-vs-paper gate counts so the fidelity of the stand-ins is
visible in reports and tests.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.circuits.adders import carry_select_adder, ripple_carry_adder
from repro.circuits.alu import alu
from repro.circuits.control import magnitude_comparator, priority_interrupt_controller
from repro.circuits.ecc import parity_tree, sec_circuit
from repro.circuits.multiplier import array_multiplier
from repro.circuits.synthetic import SyntheticSpec, parse_generated_spec, synthetic_circuit
from repro.netlist.circuit import Circuit
from repro.netlist.gate import Gate

#: Gate counts reported in Table 1 of the paper (after technology mapping).
PAPER_GATE_COUNTS: Dict[str, int] = {
    "alu1": 234,
    "alu2": 161,
    "alu3": 215,
    "c432": 203,
    "c499": 381,
    "c880": 301,
    "c1355": 378,
    "c1908": 563,
    "c2670": 820,
    "c3540": 1245,
    "c5315": 2318,
    "c6288": 2980,
    "c7552": 2763,
}


def merge_circuits(name: str, parts: Sequence[Tuple[str, Circuit]]) -> Circuit:
    """Merge several independent circuits into one, prefixing all names.

    The parts keep disjoint primary inputs/outputs; merging simply places
    them side by side in a single netlist, which is how the composite
    ISCAS-85 circuits (ALU + control + comparator blocks) are approximated.
    """
    merged = Circuit(name)
    for prefix, part in parts:
        rename = lambda net, p=prefix: f"{p}_{net}"
        for net in part.primary_inputs:
            merged.add_primary_input(rename(net))
        for gate in part.gates.values():
            merged.add_gate(
                Gate(
                    name=f"{prefix}_{gate.name}",
                    cell_type=gate.cell_type,
                    inputs=[rename(n) for n in gate.inputs],
                    output=rename(gate.output),
                    size_index=gate.size_index,
                )
            )
        for net in part.primary_outputs:
            merged.add_primary_output(rename(net))
    return merged


def c17(name: str = "c17") -> Circuit:
    """The six-NAND ISCAS-85 toy circuit, built exactly (used in examples/tests)."""
    circuit = Circuit(
        name,
        primary_inputs=["N1", "N2", "N3", "N6", "N7"],
        primary_outputs=["N22", "N23"],
    )
    circuit.add("g10", "NAND2", ["N1", "N3"], "N10")
    circuit.add("g11", "NAND2", ["N3", "N6"], "N11")
    circuit.add("g16", "NAND2", ["N2", "N11"], "N16")
    circuit.add("g19", "NAND2", ["N11", "N7"], "N19")
    circuit.add("g22", "NAND2", ["N10", "N16"], "N22")
    circuit.add("g23", "NAND2", ["N16", "N19"], "N23")
    return circuit


# ---------------------------------------------------------------------------
# Per-benchmark builders
# ---------------------------------------------------------------------------
def _build_alu1() -> Circuit:
    return alu(8, name="alu1")


def _build_alu2() -> Circuit:
    return alu(6, name="alu2")


def _build_alu3() -> Circuit:
    return alu(7, name="alu3")


def _build_c432() -> Circuit:
    return priority_interrupt_controller(27, name="c432")


def _build_c499() -> Circuit:
    return sec_circuit(32, 8, name="c499")


def _build_c880() -> Circuit:
    return alu(10, name="c880")


def _build_c1355() -> Circuit:
    return sec_circuit(20, 6, expand_xor=True, name="c1355")


def _build_c1908() -> Circuit:
    return sec_circuit(16, 8, ded=True, expand_xor=True, name="c1908")


def _build_c2670() -> Circuit:
    return merge_circuits(
        "c2670",
        [
            ("alu", alu(12)),
            ("pic", priority_interrupt_controller(32)),
            ("cmp", magnitude_comparator(12)),
        ],
    )


def _build_c3540() -> Circuit:
    return merge_circuits(
        "c3540",
        [
            ("alu", alu(16)),
            ("mul", array_multiplier(8)),
            ("pic", priority_interrupt_controller(16)),
        ],
    )


def _build_c5315() -> Circuit:
    return merge_circuits(
        "c5315",
        [
            ("alu", alu(24)),
            ("mul", array_multiplier(10)),
            ("sec", sec_circuit(32, 8)),
            ("add", carry_select_adder(32)),
        ],
    )


def _build_c6288() -> Circuit:
    return array_multiplier(22, name="c6288")


def _build_c7552() -> Circuit:
    return merge_circuits(
        "c7552",
        [
            ("add", carry_select_adder(32)),
            ("rca", ripple_carry_adder(32)),
            ("cmp", magnitude_comparator(32)),
            ("alu", alu(16)),
            ("sec", sec_circuit(32, 8)),
            ("par", parity_tree(32)),
        ],
    )


_BUILDERS: Dict[str, Callable[[], Circuit]] = {
    "c17": c17,
    "alu1": _build_alu1,
    "alu2": _build_alu2,
    "alu3": _build_alu3,
    "c432": _build_c432,
    "c499": _build_c499,
    "c880": _build_c880,
    "c1355": _build_c1355,
    "c1908": _build_c1908,
    "c2670": _build_c2670,
    "c3540": _build_c3540,
    "c5315": _build_c5315,
    "c6288": _build_c6288,
    "c7552": _build_c7552,
}

#: Named synthetic scale points (kept out of ``BENCHMARK_NAMES`` so the
#: paper-facing parametrized suites stay fast; address them directly or via
#: a ``gen:`` spec).  Gate count = depth * width.
GENERATED_SPECS: Dict[str, SyntheticSpec] = {
    "gen1k": SyntheticSpec(depth=10, width=100, seed=17, name="gen1k"),
    "gen10k": SyntheticSpec(depth=20, width=500, seed=17, name="gen10k"),
    "gen50k": SyntheticSpec(depth=50, width=1000, seed=17, name="gen50k"),
    "gen100k": SyntheticSpec(depth=100, width=1000, seed=17, name="gen100k"),
}

GENERATED_NAMES: List[str] = list(GENERATED_SPECS)

#: Names appearing in Table 1, in the paper's order (c17 is extra, for demos).
BENCHMARK_NAMES: List[str] = [
    "alu1",
    "alu2",
    "alu3",
    "c432",
    "c499",
    "c880",
    "c1355",
    "c1908",
    "c2670",
    "c3540",
    "c5315",
    "c6288",
    "c7552",
]


class UnknownCircuitError(KeyError):
    """A circuit name that is neither a registry name nor a valid ``gen`` spec."""

    def __str__(self) -> str:
        # KeyError's own str() would quote the whole message.
        return str(self.args[0])


def build_benchmark(name: str) -> Circuit:
    """Build a fresh instance of the named benchmark circuit.

    Besides the registry names, two synthetic-generator forms are accepted:
    the named scale points (``"gen50k"``) and inline ``gen:`` specs such as
    ``"gen:40,250"`` (depth,width[,seed]) or
    ``"gen:depth=40,width=250,reconvergence=0.4"``.
    """
    if name.startswith("gen:"):
        try:
            spec = parse_generated_spec(name[len("gen:"):])
        except ValueError as exc:
            raise UnknownCircuitError(f"bad generator spec {name!r}: {exc}") from exc
        return synthetic_circuit(spec)
    if name in GENERATED_SPECS:
        return synthetic_circuit(GENERATED_SPECS[name])
    try:
        builder = _BUILDERS[name]
    except KeyError:
        known = ", ".join([*sorted(_BUILDERS), *GENERATED_NAMES, "gen:<spec>"])
        raise UnknownCircuitError(f"unknown benchmark {name!r}; known: {known}") from None
    return builder()


def benchmark_summary(names: Optional[Sequence[str]] = None) -> List[Dict[str, object]]:
    """Structural summary of the generated stand-ins vs the paper's gate counts."""
    rows: List[Dict[str, object]] = []
    for name in names or BENCHMARK_NAMES:
        circuit = build_benchmark(name)
        stats = circuit.stats()
        rows.append(
            {
                "name": name,
                "generated_gates": stats.num_gates,
                "paper_gates": PAPER_GATE_COUNTS.get(name),
                "logic_depth": stats.logic_depth,
                "primary_inputs": stats.num_primary_inputs,
                "primary_outputs": stats.num_primary_outputs,
            }
        )
    return rows
