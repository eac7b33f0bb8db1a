"""The compiled array-native circuit IR.

Every analysis engine in the reproduction used to re-derive its own
levelized schedule over per-gate Python objects (three near-identical
``_VectorPlan`` copies lived in FASSTA, FULLSSTA and the criticality
analyzer).  :class:`CompiledCircuit` promotes that schedule into a single
structure-of-arrays lowering of a :class:`~repro.netlist.circuit.Circuit`
that *every* consumer shares:

* **integer ids** — gates and nets are numbered once; ``gate_names`` /
  ``net_names`` and the inverse ``gate_index`` / ``net_index`` maps are the
  only places names appear.  Gate ids are assigned in level-major order
  (level 1 first, topological order within a level), so the logic levels
  are contiguous id ranges described by ``level_offsets`` instead of
  per-level Python lists.
* **net slots** — primary inputs occupy slots ``[0, num_pis)``, gate
  outputs ``[num_pis, num_pis + num_gates)`` in gate-id order, and floating
  nets (read by some gate but neither driven nor declared primary inputs)
  fill the tail.  ``boundary_mask`` marks every slot whose arrival time is
  a boundary condition (primary inputs *and* floating nets — both start at
  zero arrival unless a caller overrides them); ``floating_mask`` isolates
  just the floating tail.
* **CSR adjacency** — ``fanin_indptr`` / ``fanin_slots`` give each gate's
  input net slots in pin order; ``fanout_indptr`` / ``fanout_gates`` give,
  per net slot, the gate ids reading that net.  Dirty-cone propagation
  (incremental re-analysis) is a breadth-first sweep over the fanout CSR.
  ``fanin_matrix`` is the dense companion: ``(num_gates, max_fanin)`` with
  invalid positions pointing at the sentinel slot ``num_nets``, so engines
  that park ``-inf`` there (the Monte-Carlo timers) fold a whole level with
  a single gather + ``max`` reduction.
* **per-gate arrays** — ``cell_type_ids`` (into the ``cell_types``
  vocabulary), ``size_index`` and ``fanin_counts``.  ``size_index`` is the
  only mutable array: size-only changes refresh it in place (driven by the
  circuit's size-change log) without recompiling the structure.
* **padded level blocks** — for the vectorized engines each level also
  carries a padded ``(gates, max_fanin)`` input-slot matrix plus validity
  mask, the exact layout the old ``_VectorPlan`` provided.

Lowering happens once per ``structure_version`` through
:meth:`Circuit.compiled() <repro.netlist.circuit.Circuit.compiled>`, which
caches the instance on the circuit itself — FASSTA, FULLSSTA, DSTA, the
Monte-Carlo timers, the criticality analyzer and incremental re-analysis
all see the *same* :class:`CompiledCircuit` object for a given structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Sequence, Tuple

import numpy as np
from numpy.typing import NDArray

IntArray = NDArray[np.intp]
BoolArray = NDArray[np.bool_]

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (circuit imports us)
    from repro.netlist.circuit import Circuit


@dataclass
class LevelBlock:
    """One logic level of the compiled schedule (a contiguous gate-id range).

    ``in_slots`` is padded to the level's maximum fanin; ``in_mask`` marks
    the valid pin positions.  Pin order is preserved, so left-to-right folds
    over the columns reproduce a gate-by-gate walk's fold order exactly.
    """

    level: int
    names: List[str]
    gate_ids: IntArray  # (G,) — contiguous: arange(start, stop)
    out_slots: IntArray  # (G,) — net slot written by each gate
    in_slots: IntArray  # (G, F) — input net slots, pin order, padded
    in_mask: BoolArray  # (G, F) — valid pin positions


class CompiledCircuit:
    """Array-native lowering of one circuit structure.

    Build through :func:`lower_circuit` (or, almost always, through the
    caching :meth:`Circuit.compiled` accessor rather than directly).
    """

    __slots__ = (
        "name",
        "structure_version",
        "num_gates",
        "num_nets",
        "num_pis",
        "gate_names",
        "gate_index",
        "net_names",
        "net_index",
        "gate_output_slot",
        "gate_level",
        "level_values",
        "level_offsets",
        "levels",
        "fanin_indptr",
        "fanin_slots",
        "fanin_counts",
        "fanin_matrix",
        "fanout_indptr",
        "fanout_gates",
        "cell_types",
        "cell_type_ids",
        "size_index",
        "boundary_mask",
        "floating_mask",
        "floating",
    )

    def __init__(
        self,
        name: str,
        structure_version: int,
        gate_names: List[str],
        net_names: List[str],
        num_pis: int,
        gate_output_slot: IntArray,
        gate_level: IntArray,
        level_values: List[int],
        level_offsets: IntArray,
        fanin_indptr: IntArray,
        fanin_slots: IntArray,
        fanout_indptr: IntArray,
        fanout_gates: IntArray,
        cell_types: List[str],
        cell_type_ids: IntArray,
        size_index: IntArray,
    ) -> None:
        self.name = name
        self.structure_version = structure_version
        self.num_gates = len(gate_names)
        self.num_nets = len(net_names)
        self.num_pis = num_pis
        self.gate_names = gate_names
        self.gate_index = {n: i for i, n in enumerate(gate_names)}
        self.net_names = net_names
        self.net_index = {n: i for i, n in enumerate(net_names)}
        self.gate_output_slot = gate_output_slot
        self.gate_level = gate_level
        self.level_values = level_values
        self.level_offsets = level_offsets
        self.fanin_indptr = fanin_indptr
        self.fanin_slots = fanin_slots
        self.fanin_counts = np.diff(fanin_indptr)
        # Globally padded fanin matrix: (num_gates, max_fanin), invalid
        # positions point at the sentinel slot ``num_nets``.  Consumers that
        # keep a ``-inf`` row there can fold a whole level with one gather
        # and one ``max`` reduction — no validity mask needed, because
        # ``max(x, -inf) == x`` exactly.
        max_fanin = int(self.fanin_counts.max()) if self.num_gates else 0
        self.fanin_matrix = np.full(
            (self.num_gates, max_fanin), self.num_nets, dtype=np.intp
        )
        if self.num_gates:
            # Scatter the CSR payload in one shot: row gid's first
            # fanin_counts[gid] columns are valid, and fanin_slots is
            # already row-major in that same order.
            valid = (
                np.arange(max_fanin, dtype=np.intp)[None, :]
                < self.fanin_counts[:, None]
            )
            self.fanin_matrix[valid] = fanin_slots
        self.fanout_indptr = fanout_indptr
        self.fanout_gates = fanout_gates
        self.cell_types = cell_types
        self.cell_type_ids = cell_type_ids
        self.size_index = size_index

        floating_start = num_pis + self.num_gates
        self.boundary_mask = np.zeros(self.num_nets, dtype=bool)
        self.boundary_mask[:num_pis] = True
        self.boundary_mask[floating_start:] = True
        self.floating_mask = np.zeros(self.num_nets, dtype=bool)
        self.floating_mask[floating_start:] = True
        self.floating: FrozenSet[str] = frozenset(net_names[floating_start:])

        self.levels = self._build_level_blocks()

    # ------------------------------------------------------------------
    @property
    def num_slots(self) -> int:
        """Alias for :attr:`num_nets` (one arrival-state slot per net)."""
        return self.num_nets

    @property
    def num_levels(self) -> int:
        return len(self.level_values)

    # ------------------------------------------------------------------
    def _build_level_blocks(self) -> List[LevelBlock]:
        blocks: List[LevelBlock] = []
        for li, level in enumerate(self.level_values):
            start = int(self.level_offsets[li])
            stop = int(self.level_offsets[li + 1])
            gate_ids = np.arange(start, stop, dtype=np.intp)
            names = self.gate_names[start:stop]
            out_slots = self.gate_output_slot[start:stop]
            counts = self.fanin_counts[start:stop]
            max_fanin = int(counts.max()) if len(counts) else 0
            in_slots = np.zeros((stop - start, max_fanin), dtype=np.intp)
            in_mask = (
                np.arange(max_fanin, dtype=np.intp)[None, :] < counts[:, None]
            )
            # Gate ids in a level are contiguous, so their CSR span is one
            # contiguous, row-major slice of fanin_slots.
            span = self.fanin_slots[
                self.fanin_indptr[start]: self.fanin_indptr[stop]
            ]
            in_slots[in_mask] = span
            blocks.append(
                LevelBlock(
                    level=level,
                    names=names,
                    gate_ids=gate_ids,
                    out_slots=out_slots,
                    in_slots=in_slots,
                    in_mask=in_mask,
                )
            )
        return blocks

    # ------------------------------------------------------------------
    def gate_fanin_slots(self, gate_id: int) -> IntArray:
        """Input net slots of one gate, in pin order."""
        return self.fanin_slots[
            self.fanin_indptr[gate_id]: self.fanin_indptr[gate_id + 1]
        ]

    def net_fanout_gates(self, slot: int) -> IntArray:
        """Gate ids reading the net in ``slot``."""
        return self.fanout_gates[
            self.fanout_indptr[slot]: self.fanout_indptr[slot + 1]
        ]

    # ------------------------------------------------------------------
    def fanout_cone(self, seed_gate_ids: Iterable[int]) -> IntArray:
        """Seed gates plus their transitive fanout, topologically sorted.

        Breadth-first reachability over the fanout CSR.  The returned array
        is ascending, and because gate ids are level-major, ascending id
        order is a valid topological order — callers can recompute the cone
        front to back without consulting the netlist.
        """
        mark = np.zeros(self.num_gates, dtype=bool)
        stack: List[int] = []
        for gid in seed_gate_ids:
            if not mark[gid]:
                mark[gid] = True
                stack.append(int(gid))
        while stack:
            gid = stack.pop()
            slot = self.gate_output_slot[gid]
            for nxt in self.net_fanout_gates(int(slot)):
                if not mark[nxt]:
                    mark[nxt] = True
                    stack.append(int(nxt))
        return np.nonzero(mark)[0]

    # ------------------------------------------------------------------
    def refresh_sizes(self, circuit: "Circuit", gate_names: Sequence[str]) -> None:
        """Refresh ``size_index`` in place for the named gates.

        Called by :meth:`Circuit.compiled` with the tail of the size-change
        log; unknown names (gates since removed — which would also have
        bumped ``structure_version`` and forced a relower) are skipped.
        """
        for name in gate_names:
            gid = self.gate_index.get(name)
            if gid is not None:
                self.size_index[gid] = circuit.gate(name).size_index

    def __repr__(self) -> str:  # pragma: no cover - repr formatting
        return (
            f"CompiledCircuit({self.name!r}, v{self.structure_version}, "
            f"gates={self.num_gates}, nets={self.num_nets}, "
            f"levels={self.num_levels})"
        )


def lower_circuit(circuit: "Circuit") -> CompiledCircuit:
    """Lower ``circuit`` to a fresh :class:`CompiledCircuit`.

    Most callers should use :meth:`Circuit.compiled`, which caches the
    result per structure version and keeps the size array fresh.
    """
    levels_map = circuit.levels()
    by_level: Dict[int, List[str]] = {}
    # The one sanctioned netlist walk: this IS the lowering every engine
    # shares.  repro-lint: allow=RL001
    for name in circuit.topological_order():
        by_level.setdefault(levels_map[name], []).append(name)
    level_values = sorted(by_level)

    gate_names: List[str] = []
    level_offsets = np.zeros(len(level_values) + 1, dtype=np.intp)
    for li, level in enumerate(level_values):
        gate_names.extend(by_level[level])
        level_offsets[li + 1] = len(gate_names)

    num_gates = len(gate_names)
    # One dict lookup per gate for the whole lowering, not one per loop.
    all_gates = circuit.gates
    gate_objs = [all_gates[name] for name in gate_names]

    gate_level = np.zeros(num_gates, dtype=np.intp)
    for gid, name in enumerate(gate_names):
        gate_level[gid] = levels_map[name]

    # Net slots: primary inputs, then gate outputs (gate-id order), then
    # floating nets in first-seen (gate-id, pin) order.
    net_names: List[str] = list(circuit.primary_inputs)
    net_index: Dict[str, int] = {n: i for i, n in enumerate(net_names)}
    gate_output_slot = np.zeros(num_gates, dtype=np.intp)
    for gid, gate in enumerate(gate_objs):
        out = gate.output
        gate_output_slot[gid] = len(net_names)
        net_index[out] = len(net_names)
        net_names.append(out)
    for gate in gate_objs:
        for net in gate.inputs:
            if net not in net_index:
                net_index[net] = len(net_names)
                net_names.append(net)

    # Fanin CSR (gate -> input net slots, pin order).
    fanin_indptr = np.zeros(num_gates + 1, dtype=np.intp)
    flat_fanin: List[int] = []
    for gid, gate in enumerate(gate_objs):
        for net in gate.inputs:
            flat_fanin.append(net_index[net])
        fanin_indptr[gid + 1] = len(flat_fanin)
    fanin_slots = np.array(flat_fanin, dtype=np.intp)

    # Fanout CSR (net slot -> reader gate ids, load order).
    num_nets = len(net_names)
    fanout_indptr = np.zeros(num_nets + 1, dtype=np.intp)
    flat_fanout: List[int] = []
    gate_index = {n: i for i, n in enumerate(gate_names)}
    for slot, net in enumerate(net_names):
        for load_name in circuit.load_names(net):
            flat_fanout.append(gate_index[load_name])
        fanout_indptr[slot + 1] = len(flat_fanout)
    fanout_gates = np.array(flat_fanout, dtype=np.intp)

    # Per-gate cell/size arrays.
    cell_types: List[str] = []
    cell_vocab: Dict[str, int] = {}
    cell_type_ids = np.zeros(num_gates, dtype=np.intp)
    size_index = np.zeros(num_gates, dtype=np.intp)
    for gid, gate in enumerate(gate_objs):
        cid = cell_vocab.get(gate.cell_type)
        if cid is None:
            cid = len(cell_types)
            cell_vocab[gate.cell_type] = cid
            cell_types.append(gate.cell_type)
        cell_type_ids[gid] = cid
        size_index[gid] = gate.size_index

    return CompiledCircuit(
        name=circuit.name,
        structure_version=circuit.structure_version,
        gate_names=gate_names,
        net_names=net_names,
        num_pis=len(circuit.primary_inputs),
        gate_output_slot=gate_output_slot,
        gate_level=gate_level,
        level_values=level_values,
        level_offsets=level_offsets,
        fanin_indptr=fanin_indptr,
        fanin_slots=fanin_slots,
        fanout_indptr=fanout_indptr,
        fanout_gates=fanout_gates,
        cell_types=cell_types,
        cell_type_ids=cell_type_ids,
        size_index=size_index,
    )


__all__: Tuple[str, ...] = ("CompiledCircuit", "LevelBlock", "lower_circuit")
