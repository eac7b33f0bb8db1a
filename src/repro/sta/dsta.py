"""Deterministic (nominal) static timing analysis.

Arrival times are propagated forward through the levelized circuit using the
nominal gate delays from the library delay model; required times are
propagated backward from a clock period (or from the worst arrival time when
no constraint is given); slack = required - arrival.  The critical path is
the chain of gates with the smallest slack — the classic WNS path the paper
generalises into the WNSS path.

The forward pass is a levelized array program over the circuit's compiled
IR (:meth:`Circuit.compiled() <repro.netlist.circuit.Circuit.compiled>`):
one ``np.maximum`` fold per input position per logic level.  ``max`` over
floats and float addition are exact, so the arrivals are bit-identical to a
gate-by-gate walk (the reference oracle in ``tests/reference.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.library.delay_model import BaseDelayModel
from repro.netlist.circuit import Circuit
from repro.obs import METRICS, span


@dataclass
class DeterministicTimingReport:
    """Result of one deterministic STA run."""

    arrival: Dict[str, float]
    required: Dict[str, float]
    slack: Dict[str, float]
    gate_delays: Dict[str, float]
    critical_path: List[str]
    worst_output: str
    worst_arrival: float
    clock_period: float

    @property
    def wns(self) -> float:
        """Worst negative slack (can be positive when the circuit meets timing)."""
        return self.clock_period - self.worst_arrival

    def path_delay(self) -> float:
        """Sum of gate delays along the critical path."""
        return sum(self.gate_delays[g] for g in self.critical_path)


class DeterministicSTA:
    """Classic nominal static timing analysis over a combinational circuit.

    Parameters
    ----------
    delay_model:
        Library delay model giving nominal gate delays under load.
    """

    def __init__(self, delay_model: BaseDelayModel) -> None:
        self.delay_model = delay_model

    # ------------------------------------------------------------------
    def arrival_times(self, circuit: Circuit) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Forward propagation.

        Returns ``(net_arrival, gate_delays)``: the arrival time at every
        net and the nominal delay of every gate.  Primary inputs arrive at
        time 0.
        """
        METRICS.counter("dsta.runs")
        with span("dsta.arrival_times") as sp:
            arrival, gate_delays = self._propagate(circuit)
            sp.set(gates=len(gate_delays))
        return arrival, gate_delays

    # ------------------------------------------------------------------
    def _propagate(
        self, circuit: Circuit
    ) -> Tuple[Dict[str, float], Dict[str, float]]:
        plan = circuit.compiled()
        gate_delay = self.delay_model.gate_delay
        delay_list = [gate_delay(circuit, circuit.gate(name)) for name in plan.gate_names]
        delays = np.array(delay_list)
        # One extra slot parks -inf under the fanin matrix's padding, so a
        # whole level folds with one gather and one row-wise max:
        # ``max(x, -inf) == x`` exactly.
        arr = np.zeros(plan.num_nets + 1)
        arr[plan.num_nets] = -np.inf
        offsets = plan.level_offsets.tolist()
        for start, stop in zip(offsets[:-1], offsets[1:], strict=True):
            worst = arr[plan.fanin_matrix[start:stop]].max(axis=1)
            arr[plan.gate_output_slot[start:stop]] = worst + delays[start:stop]
        # Primary inputs and gate outputs fill the leading slots; floating
        # nets (the tail) stay out of the map and read as 0.0 through
        # ``.get``.
        visible = plan.num_pis + plan.num_gates
        arrival = dict(zip(plan.net_names[:visible], arr[:visible].tolist(), strict=True))
        return arrival, dict(zip(plan.gate_names, delay_list, strict=True))

    def analyze(
        self, circuit: Circuit, clock_period: Optional[float] = None
    ) -> DeterministicTimingReport:
        """Run full STA and return a :class:`DeterministicTimingReport`.

        When ``clock_period`` is omitted the constraint is set to the worst
        primary-output arrival time, making the worst slack exactly zero.
        """
        arrival, gate_delays = self.arrival_times(circuit)

        outputs = circuit.primary_outputs
        if not outputs:
            raise ValueError(f"circuit {circuit.name!r} has no primary outputs")
        worst_output = max(outputs, key=lambda net: arrival.get(net, 0.0))
        worst_arrival = arrival.get(worst_output, 0.0)
        period = clock_period if clock_period is not None else worst_arrival

        # Backward propagation of required times.
        required: Dict[str, float] = {}
        for net in outputs:
            required[net] = period
        for gate in reversed(list(circuit)):
            out_required = required.get(gate.output)
            if out_required is None:
                # Dangling gate output: unconstrained.
                out_required = period
                required[gate.output] = out_required
            input_required = out_required - gate_delays[gate.name]
            for net in gate.inputs:
                previous = required.get(net)
                if previous is None or input_required < previous:
                    required[net] = input_required

        slack = {
            net: required.get(net, period) - arr for net, arr in arrival.items()
        }

        critical_path = self._trace_critical_path(circuit, arrival, gate_delays, worst_output)
        return DeterministicTimingReport(
            arrival=arrival,
            required=required,
            slack=slack,
            gate_delays=gate_delays,
            critical_path=critical_path,
            worst_output=worst_output,
            worst_arrival=worst_arrival,
            clock_period=period,
        )

    # ------------------------------------------------------------------
    def _trace_critical_path(
        self,
        circuit: Circuit,
        arrival: Dict[str, float],
        gate_delays: Dict[str, float],
        worst_output: str,
    ) -> List[str]:
        """Walk back from the worst output picking the latest-arriving input."""
        path: List[str] = []
        gate = circuit.driver_of(worst_output)
        while gate is not None:
            path.append(gate.name)
            worst_net = max(gate.inputs, key=lambda net: arrival.get(net, 0.0))
            gate = circuit.driver_of(worst_net)
        path.reverse()
        return path

    def critical_path(self, circuit: Circuit) -> List[str]:
        """Gate names along the nominal critical (WNS) path, inputs first."""
        return self.analyze(circuit).critical_path

    def max_delay(self, circuit: Circuit) -> float:
        """Nominal delay of the longest path (worst primary-output arrival)."""
        arrival, _ = self.arrival_times(circuit)
        return max(arrival.get(net, 0.0) for net in circuit.primary_outputs)
