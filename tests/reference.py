"""Reference oracles: the gate-by-gate walks the engines are pinned against.

Every timing engine has exactly one production forward pass, levelized over
the circuit's compiled IR.  This module keeps the simplest correct
formulation of each one instead: a walk over the circuit in topological
order, one gate at a time, using the per-value operations (float
``max``/``+``, :meth:`NormalDelay.maximum_of`, :meth:`DiscretePDF.maximum_of`
and :meth:`DiscretePDF.add`, a per-gate ``np.maximum`` over Monte-Carlo
samples).  The levelized passes must reproduce these walks: bit for bit for
DSTA and Monte Carlo, to 1e-9 for FASSTA and FULLSSTA, and bit for bit for
:class:`~repro.core.fullssta.IncrementalReanalysis`, which folds gate by
gate itself.

The oracle engines subclass the production ones and replace only the
forward pass (``_propagate``), so result assembly — output max, slack,
worst-output ranking — is shared and the comparison isolates propagation.

Tests and the scripts under ``benchmarks/`` import this module; no module
under ``src/repro`` may.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.core.discrete_pdf import DiscretePDF
from repro.core.fassta import FASSTA
from repro.core.fullssta import FULLSSTA
from repro.core.rv import ZERO_DELAY, NormalDelay
from repro.montecarlo.mc import MonteCarloTimer
from repro.netlist.circuit import Circuit
from repro.sta.dsta import DeterministicSTA


class ReferenceDSTA(DeterministicSTA):
    """Deterministic STA whose forward pass walks the gates one by one."""

    def _propagate(self, circuit: Circuit) -> Tuple[Dict[str, float], Dict[str, float]]:
        arrival = {net: 0.0 for net in circuit.primary_inputs}
        gate_delays: Dict[str, float] = {}
        for gate in circuit:
            delay = self.delay_model.gate_delay(circuit, gate)
            gate_delays[gate.name] = delay
            input_arrival = max(arrival.get(net, 0.0) for net in gate.inputs)
            arrival[gate.output] = input_arrival + delay
        return arrival, gate_delays


class ReferenceFASSTA(FASSTA):
    """FASSTA whose forward pass folds Clark maxima one gate at a time."""

    def _propagate(
        self,
        circuit: Circuit,
        boundary_arrivals: Optional[Mapping[str, NormalDelay]],
    ) -> Tuple[Dict[str, NormalDelay], Dict[str, NormalDelay]]:
        arrivals: Dict[str, NormalDelay] = dict(boundary_arrivals or {})
        for net in circuit.primary_inputs:
            arrivals.setdefault(net, ZERO_DELAY)
        gate_delays: Dict[str, NormalDelay] = {}
        for gate in circuit:
            delay_rv = self.gate_delay_rv(circuit, gate.name)
            gate_delays[gate.name] = delay_rv
            input_rvs = [arrivals.get(net, ZERO_DELAY) for net in gate.inputs]
            worst_input = NormalDelay.maximum_of(input_rvs)
            arrivals[gate.output] = worst_input + delay_rv
        return arrivals, gate_delays


class ReferenceFULLSSTA(FULLSSTA):
    """FULLSSTA whose forward pass folds discrete pdfs one gate at a time."""

    def _propagate(
        self,
        circuit: Circuit,
        boundary_arrivals: Optional[Mapping[str, DiscretePDF]],
    ) -> Tuple[Dict[str, DiscretePDF], Dict[str, NormalDelay]]:
        point_zero = DiscretePDF.point(0.0)
        arrivals: Dict[str, DiscretePDF] = dict(boundary_arrivals or {})
        for net in circuit.primary_inputs:
            arrivals.setdefault(net, point_zero)
        gate_delay_moments: Dict[str, NormalDelay] = {}
        for gate in circuit:
            dist = self.variation_model.gate_distribution(circuit, gate, self.delay_model)
            gate_delay_moments[gate.name] = NormalDelay(dist.mean, dist.sigma)
            delay_pdf = DiscretePDF.from_normal(dist.mean, dist.sigma, self.num_samples)
            input_pdfs = [arrivals.get(net, point_zero) for net in gate.inputs]
            if len(input_pdfs) == 1:
                worst_input = input_pdfs[0]
            else:
                worst_input = DiscretePDF.maximum_of(input_pdfs, self.num_samples)
            arrivals[gate.output] = worst_input.add(delay_pdf, self.num_samples)
        return arrivals, gate_delay_moments


def reference_mc_samples(
    timer: MonteCarloTimer, circuit: Circuit, num_samples: int, seed: int
) -> np.ndarray:
    """Independent-variation Monte Carlo, propagated one gate at a time.

    Same generator stream as :meth:`MonteCarloTimer.run` (one
    ``rng.normal`` draw per gate, in topological order), so the returned
    circuit-delay samples must equal the levelized timer's bit for bit.
    """
    rng = np.random.default_rng(seed)
    order = circuit.topological_order()
    distributions = timer.variation_model.all_gate_distributions(
        circuit, timer.delay_model
    )
    gate_samples = {}
    for name in order:
        dist = distributions[name]
        gate_samples[name] = rng.normal(dist.mean, dist.sigma, num_samples)
    arrivals = {net: np.zeros(num_samples) for net in circuit.primary_inputs}
    for name in order:
        gate = circuit.gate(name)
        worst = None
        for net in gate.inputs:
            arr = arrivals.setdefault(net, np.zeros(num_samples))
            worst = arr if worst is None else np.maximum(worst, arr)
        arrivals[gate.output] = worst + gate_samples[name]
    delay = None
    for net in circuit.primary_outputs:
        arr = arrivals[net]
        delay = arr if delay is None else np.maximum(delay, arr)
    return delay
