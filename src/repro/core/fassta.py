"""FASSTA — the fast, moment-based statistical timing engine (paper §4.3).

FASSTA is the inner-loop engine used while evaluating candidate gate sizes.
Instead of carrying full discrete pdfs it carries only the first two moments
of every arrival time (a :class:`~repro.core.rv.NormalDelay`):

* ``sum`` — means and variances add (independent-normal assumption),
* ``max`` — Clark's formulae with the quadratic-cdf approximation plus the
  ±2.6-sigma dominance shortcut (:func:`repro.core.clark.clark_max_fast`).

The engine times a whole :class:`~repro.netlist.circuit.Circuit`; its
per-gate delay moments also drive :class:`~repro.core.cost.CostEvaluator`,
which times a :class:`~repro.core.subcircuit.Subcircuit` whose boundary
arrival times were previously annotated by FULLSSTA — exactly the nesting
the paper describes ("a slower more accurate approach for tracking
statistical critical paths and a fast engine for evaluation of gate size
assignments").

Propagation is levelized: gates are grouped by logic level and the Clark
fast-max is evaluated over NumPy arrays of μ/σ, one fold per input position
per level (:func:`repro.core.clark.clark_max_fast_arrays`).  The level
schedule comes from the circuit's shared array-native IR
(:meth:`Circuit.compiled() <repro.netlist.circuit.Circuit.compiled>`),
lowered once per structure version and shared with every other engine.
The fold order is the pairwise left-to-right order of
:meth:`NormalDelay.maximum_of <repro.core.rv.NormalDelay.maximum_of>`, so the
moments agree with a gate-by-gate walk (the reference oracle in
``tests/reference.py``) to ~1e-12.  The exact Clark moments stay available
to accuracy studies through :mod:`repro.core.clark`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.clark import clark_max_fast_arrays
from repro.core.rv import NormalDelay, ZERO_DELAY
from repro.library.delay_model import BaseDelayModel
from repro.netlist.circuit import Circuit
from repro.obs import METRICS, span
from repro.variation.model import VariationModel


@dataclass
class FasstaResult:
    """Arrival-time moments produced by one FASSTA run."""

    arrivals: Dict[str, NormalDelay]
    gate_delays: Dict[str, NormalDelay]
    output_rv: NormalDelay
    worst_output: str

    def arrival(self, net: str) -> NormalDelay:
        """Arrival-time moments at ``net`` (0 for unknown/primary-input nets)."""
        return self.arrivals.get(net, ZERO_DELAY)

    @property
    def mean(self) -> float:
        """Mean of the circuit-level max arrival (the paper's mu of RV_O)."""
        return self.output_rv.mean

    @property
    def sigma(self) -> float:
        """Standard deviation of the circuit-level max arrival."""
        return self.output_rv.sigma


class FASSTA:
    """Fast moment-propagation SSTA engine.

    Parameters
    ----------
    delay_model:
        Library delay model giving nominal gate delays under load.
    variation_model:
        Process-variation model assigning a sigma to every gate delay.
    worst_key:
        Ranking criterion used to report :attr:`FasstaResult.worst_output`.
        Defaults to the raw mean (a ``lambda = 0`` objective); the sizer
        passes its weighted cost ``mu + lambda * sigma`` so the reported
        worst output matches the optimization objective.
    """

    def __init__(
        self,
        delay_model: BaseDelayModel,
        variation_model: VariationModel,
        worst_key: Optional[Callable[[NormalDelay], float]] = None,
    ) -> None:
        self.delay_model = delay_model
        self.variation_model = variation_model
        self.worst_key = worst_key

    # ------------------------------------------------------------------
    def gate_delay_rv(
        self, circuit: Circuit, gate_name: str, size_index: Optional[int] = None
    ) -> NormalDelay:
        """Delay distribution of one gate (optionally at a hypothetical size)."""
        gate = circuit.gate(gate_name)
        dist = self.variation_model.gate_distribution(
            circuit, gate, self.delay_model, size_index
        )
        return NormalDelay(dist.mean, dist.sigma)

    # ------------------------------------------------------------------
    def analyze(
        self,
        circuit: Circuit,
        boundary_arrivals: Optional[Mapping[str, NormalDelay]] = None,
        outputs: Optional[List[str]] = None,
    ) -> FasstaResult:
        """Propagate arrival-time moments through ``circuit``.

        Parameters
        ----------
        circuit:
            The circuit to time.
        boundary_arrivals:
            Arrival moments of nets driven from outside the analysed region
            (primary inputs default to ``NormalDelay(0, 0)``).
        outputs:
            Net names over which the circuit-level max is taken; defaults to
            the circuit's primary outputs.  Requested nets must exist in the
            circuit (or the boundary map) — unknown names raise ``KeyError``
            instead of silently timing as zero.
        """
        METRICS.counter("fassta.runs")
        with span("fassta.analyze") as sp:
            arrivals, gate_delays = self._propagate(circuit, boundary_arrivals)
            sp.set(gates=len(gate_delays))
        return self._build_result(circuit, arrivals, gate_delays, outputs)

    # ------------------------------------------------------------------
    def _propagate(
        self,
        circuit: Circuit,
        boundary_arrivals: Optional[Mapping[str, NormalDelay]],
    ) -> Tuple[Dict[str, NormalDelay], Dict[str, NormalDelay]]:
        plan = circuit.compiled()

        mu = np.zeros(plan.num_nets)
        sg = np.zeros(plan.num_nets)
        extra_boundary: Dict[str, NormalDelay] = {}
        boundary_nets: set = set()
        if boundary_arrivals:
            for net, rv in boundary_arrivals.items():
                idx = plan.net_index.get(net)
                if idx is None:
                    # Net unknown to this circuit: keep it visible in the
                    # result map all the same.
                    extra_boundary[net] = rv
                else:
                    boundary_nets.add(net)
                    mu[idx] = rv.mean
                    sg[idx] = rv.sigma

        gate_delays: Dict[str, NormalDelay] = {}
        for block in plan.levels:
            names, out_ids = block.names, block.out_slots
            in_ids, in_mask = block.in_slots, block.in_mask
            d_mu = np.empty(len(names))
            d_sg = np.empty(len(names))
            for row, name in enumerate(names):
                rv = self.gate_delay_rv(circuit, name)
                gate_delays[name] = rv
                d_mu[row] = rv.mean
                d_sg[row] = rv.sigma

            # Left-to-right pairwise fold over input positions, masked so a
            # gate with fewer inputs keeps its running max untouched — the
            # same fold order as NormalDelay.maximum_of.
            worst_mu = mu[in_ids[:, 0]]
            worst_sg = sg[in_ids[:, 0]]
            for col in range(1, in_ids.shape[1]):
                mask = in_mask[:, col]
                cand_mu = mu[in_ids[:, col]]
                cand_sg = sg[in_ids[:, col]]
                max_mu, max_var = clark_max_fast_arrays(
                    worst_mu, worst_sg, cand_mu, cand_sg
                )
                max_sg = np.sqrt(max_var)
                worst_mu = np.where(mask, max_mu, worst_mu)
                worst_sg = np.where(mask, max_sg, worst_sg)

            mu[out_ids] = worst_mu + d_mu
            sg[out_ids] = np.sqrt(worst_sg * worst_sg + d_sg * d_sg)

        arrivals = {
            net: NormalDelay(float(mu[idx]), float(sg[idx]))
            for net, idx in plan.net_index.items()
            if net not in plan.floating or net in boundary_nets
        }
        arrivals.update(extra_boundary)
        return arrivals, gate_delays

    # ------------------------------------------------------------------
    def _build_result(
        self,
        circuit: Circuit,
        arrivals: Dict[str, NormalDelay],
        gate_delays: Dict[str, NormalDelay],
        outputs: Optional[List[str]],
    ) -> FasstaResult:
        output_nets = outputs if outputs is not None else circuit.primary_outputs
        if not output_nets:
            raise ValueError(f"circuit {circuit.name!r} has no outputs to time")
        missing = [net for net in output_nets if net not in arrivals]
        if missing:
            raise KeyError(
                f"unknown output net(s) {missing} in circuit {circuit.name!r}"
            )
        output_rvs = [arrivals[net] for net in output_nets]
        output_rv = NormalDelay.maximum_of(output_rvs)
        key = self.worst_key or (lambda rv: rv.mean)
        worst_output = max(output_nets, key=lambda net: key(arrivals[net]))
        return FasstaResult(
            arrivals=arrivals,
            gate_delays=gate_delays,
            output_rv=output_rv,
            worst_output=worst_output,
        )

    # ------------------------------------------------------------------
    def output_moments(self, circuit: Circuit) -> NormalDelay:
        """Shortcut: moments of the circuit-level max arrival."""
        return self.analyze(circuit).output_rv
