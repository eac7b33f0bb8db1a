"""Cost functions: the weighted mean/sigma objective (paper Eq. 7).

For every output ``O_i`` of a (sub)circuit the paper scores

    Cost(O_i) = mu_i + lambda * sigma_i

where ``lambda`` is a user-specified weight that "ranks relative importance
of minimizing standard variation against mean of delay"; the cost of the
(sub)circuit is the *maximum* of the per-output costs.  ``lambda = 0``
recovers a pure mean-delay objective; the paper's experiments use
``lambda in {3, 9}`` (and 6 in Fig. 4).

:class:`YieldObjective` recasts the same machinery as a *parametric timing
yield* target (the paper's Fig. 1 motivation): minimize the clock period at
which ``target_yield`` of manufactured parts meet timing.  Under the normal
approximation that period is exactly ``mu + z * sigma`` with
``z = Phi^{-1}(target_yield)`` — i.e. a weighted cost whose lambda is the
target's z-score — which is what the sizer's inner loop uses; circuit-level
accept/reject decisions use the exact discrete-pdf quantile instead.

:class:`CostEvaluator` binds the cost to a FASSTA engine and evaluates
candidate gate sizes on extracted subcircuits, which is exactly the
``Cost(S)`` procedure of the Fig. 2 pseudocode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Union

from repro.core.discrete_pdf import DiscretePDF
from repro.core.fassta import FASSTA
from repro.core.rv import NormalDelay, ZERO_DELAY, _standard_normal_quantile
from repro.core.subcircuit import Subcircuit


@dataclass(frozen=True)
class WeightedCost:
    """``cost(rv) = rv.mean + lam * rv.sigma`` (Eq. 7)."""

    lam: float

    def __post_init__(self) -> None:
        if self.lam < 0:
            raise ValueError("lambda weight must be non-negative")

    def of(self, rv: NormalDelay) -> float:
        """Cost of a single arrival-time random variable."""
        return rv.mean + self.lam * rv.sigma

    def of_moments(self, mean: float, sigma: float) -> float:
        return mean + self.lam * sigma

    def worst(self, arrivals: Mapping[str, NormalDelay]) -> float:
        """Maximum cost over a set of outputs (the subcircuit cost of §4.5)."""
        if not arrivals:
            raise ValueError("worst() needs at least one output arrival")
        return max(self.of(rv) for rv in arrivals.values())

    def components(self, arrivals: Mapping[str, NormalDelay]) -> "CostComponents":
        """Both the worst and the summed per-output cost of a set of outputs.

        The sum acts as a tie-breaker when comparing candidate gate sizes: a
        resize that improves a non-worst output of the subcircuit (without
        hurting the worst one) is still progress, even though the Eq. 7 max
        is unchanged.  Without the tie-breaker, circuits with many parallel
        near-critical paths dead-lock because every local improvement is
        masked by some slower path crossing the same subcircuit.
        """
        if not arrivals:
            raise ValueError("components() needs at least one output arrival")
        costs = [self.of(rv) for rv in arrivals.values()]
        return CostComponents(worst=max(costs), total=sum(costs))


@dataclass(frozen=True)
class YieldObjective:
    """Size for the smallest clock period achieving ``target_yield``.

    Parameters
    ----------
    target_yield:
        Fraction of manufactured parts that must meet the period, in
        ``[0.5, 1)``.  Targets below one half would reward *increasing*
        variance (negative z-score) and are rejected.
    max_area_ratio:
        Optional area constraint for the sizer: candidate states whose
        total area exceeds ``max_area_ratio`` times the starting area are
        rejected even when they improve the period (the area-constrained
        variant of the yield mode).
    """

    target_yield: float
    max_area_ratio: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.5 <= self.target_yield < 1.0:
            raise ValueError("target_yield must be in [0.5, 1)")
        if self.max_area_ratio is not None and self.max_area_ratio < 1.0:
            raise ValueError("max_area_ratio must be >= 1 (relative to start)")

    @property
    def z(self) -> float:
        """z-score of the target yield, ``Phi^{-1}(target_yield)``."""
        return _standard_normal_quantile(self.target_yield)

    def equivalent_cost(self) -> WeightedCost:
        """The Eq. 7 cost whose lambda equals the target's z-score.

        For normal moments ``mu + z * sigma`` *is* the period that achieves
        the target yield, so the sizer's moment-based inner loop optimizes
        the yield objective by reusing the weighted cost unchanged.
        """
        return WeightedCost(self.z)

    def period_for(self, distribution: Union[NormalDelay, DiscretePDF]) -> float:
        """Smallest clock period achieving the target on ``distribution``.

        Delegates to :func:`repro.analysis.timing_yield.period_for_yield`
        (imported lazily: the analysis package imports the sizer stack at
        module scope, so a top-level import here would be circular).
        """
        from repro.analysis.timing_yield import period_for_yield

        return period_for_yield(distribution, self.target_yield)


@dataclass(frozen=True)
class CostComponents:
    """(worst, total) cost of a subcircuit's outputs, compared lexicographically."""

    worst: float
    total: float

    #: Relative tolerance used when deciding the worst costs are "equal".
    REL_TOL = 1e-9

    def better_than(self, other: "CostComponents") -> bool:
        """True when this cost is strictly preferable to ``other``."""
        tol = self.REL_TOL * max(abs(self.worst), abs(other.worst), 1.0)
        if self.worst < other.worst - tol:
            return True
        if self.worst > other.worst + tol:
            return False
        return self.total < other.total - tol


class CostEvaluator:
    """Evaluates the Eq. 7 cost of a subcircuit with the FASSTA engine.

    Parameters
    ----------
    fassta:
        The fast inner-loop engine.
    cost:
        The weighted cost (carries lambda).
    """

    def __init__(self, fassta: FASSTA, cost: WeightedCost) -> None:
        self.fassta = fassta
        self.cost = cost

    # ------------------------------------------------------------------
    def subcircuit_arrivals(
        self,
        subcircuit: Subcircuit,
        boundary_arrivals: Mapping[str, NormalDelay],
        gate_delay_rvs: Optional[Mapping[str, NormalDelay]] = None,
    ) -> Dict[str, NormalDelay]:
        """Propagate moments across the subcircuit's member gates only.

        ``boundary_arrivals`` supplies the arrival moments of the
        subcircuit's input nets (typically the values FULLSSTA recorded).
        Loads are computed against the parent circuit so boundary fanout is
        exact.  ``gate_delay_rvs`` optionally supplies precomputed delay
        moments for member gates (the size-sweep path uses this to avoid
        re-deriving delays whose inputs did not change); gates missing from
        the map are computed fresh.
        """
        circuit = subcircuit.parent
        arrivals: Dict[str, NormalDelay] = {}
        for net in subcircuit.input_nets:
            arrivals[net] = boundary_arrivals.get(net, ZERO_DELAY)

        for gate_name in subcircuit.gate_names:
            gate = circuit.gate(gate_name)
            delay_rv = None
            if gate_delay_rvs is not None:
                delay_rv = gate_delay_rvs.get(gate_name)
            if delay_rv is None:
                delay_rv = self.fassta.gate_delay_rv(circuit, gate_name)
            input_rvs = [arrivals.get(net, ZERO_DELAY) for net in gate.inputs]
            if len(input_rvs) == 1:
                worst_input = input_rvs[0]
            else:
                worst_input = NormalDelay.maximum_of(input_rvs)
            arrivals[gate.output] = worst_input + delay_rv
        return arrivals

    def _output_arrivals(
        self,
        subcircuit: Subcircuit,
        boundary_arrivals: Mapping[str, NormalDelay],
    ) -> Dict[str, NormalDelay]:
        arrivals = self.subcircuit_arrivals(subcircuit, boundary_arrivals)
        return {net: arrivals.get(net, ZERO_DELAY) for net in subcircuit.output_nets}

    def subcircuit_cost(
        self,
        subcircuit: Subcircuit,
        boundary_arrivals: Mapping[str, NormalDelay],
    ) -> float:
        """The Eq. 7 cost of the subcircuit: max over its output nets."""
        return self.cost.worst(self._output_arrivals(subcircuit, boundary_arrivals))

    def subcircuit_cost_components(
        self,
        subcircuit: Subcircuit,
        boundary_arrivals: Mapping[str, NormalDelay],
    ) -> CostComponents:
        """(worst, total) cost of the subcircuit, for candidate-size comparisons."""
        return self.cost.components(self._output_arrivals(subcircuit, boundary_arrivals))

    def candidate_size_cost(
        self,
        subcircuit: Subcircuit,
        boundary_arrivals: Mapping[str, NormalDelay],
        size_index: int,
    ) -> float:
        """Cost of the subcircuit with the seed gate temporarily at ``size_index``.

        The seed's size is restored before returning, so the parent circuit
        is never left in the trial state.
        """
        circuit = subcircuit.parent
        gate = circuit.gate(subcircuit.seed)
        original = gate.size_index
        try:
            gate.size_index = size_index
            return self.subcircuit_cost(subcircuit, boundary_arrivals)
        finally:
            gate.size_index = original

    def candidate_size_cost_components(
        self,
        subcircuit: Subcircuit,
        boundary_arrivals: Mapping[str, NormalDelay],
        size_index: int,
    ) -> CostComponents:
        """(worst, total) cost with the seed gate temporarily at ``size_index``."""
        circuit = subcircuit.parent
        gate = circuit.gate(subcircuit.seed)
        original = gate.size_index
        try:
            gate.size_index = size_index
            return self.subcircuit_cost_components(subcircuit, boundary_arrivals)
        finally:
            gate.size_index = original

    # ------------------------------------------------------------------
    def size_sweep_components(
        self,
        subcircuit: Subcircuit,
        boundary_arrivals: Mapping[str, NormalDelay],
        size_indices: Iterable[int],
        delay_rv_cache: Optional[Dict[str, NormalDelay]] = None,
    ) -> Dict[int, CostComponents]:
        """(worst, total) cost for every candidate seed size in one sweep.

        Equivalent to calling :meth:`candidate_size_cost_components` once per
        size, but the delay moments of *unaffected* member gates — everything
        except the seed itself and the member drivers of its input nets,
        whose loads include the seed's input capacitance — are computed once
        and shared across all candidates instead of once per candidate.

        ``delay_rv_cache`` optionally memoizes those unaffected delay
        moments across calls; the caller owns the dict and must clear it
        whenever any gate size in the parent circuit changes.

        The seed's size is restored before returning.
        """
        circuit = subcircuit.parent
        seed_gate = circuit.gate(subcircuit.seed)
        affected = {subcircuit.seed}
        for net in seed_gate.inputs:
            driver = circuit.driver_of(net)
            if driver is not None and driver.name in subcircuit:
                affected.add(driver.name)

        static_rvs: Dict[str, NormalDelay] = {}
        for name in subcircuit.gate_names:
            if name in affected:
                continue
            rv = None if delay_rv_cache is None else delay_rv_cache.get(name)
            if rv is None:
                rv = self.fassta.gate_delay_rv(circuit, name)
                if delay_rv_cache is not None:
                    delay_rv_cache[name] = rv
            static_rvs[name] = rv

        results: Dict[int, CostComponents] = {}
        original = seed_gate.size_index
        try:
            for size_index in size_indices:
                seed_gate.size_index = size_index
                arrivals = self.subcircuit_arrivals(
                    subcircuit, boundary_arrivals, gate_delay_rvs=static_rvs
                )
                outputs = {
                    net: arrivals.get(net, ZERO_DELAY)
                    for net in subcircuit.output_nets
                }
                results[size_index] = self.cost.components(outputs)
        finally:
            seed_gate.size_index = original
        return results

    # ------------------------------------------------------------------
    def circuit_cost(self, output_rv: NormalDelay) -> float:
        """Circuit-level objective from the FULLSSTA/FASSTA output moments."""
        return self.cost.of(output_rv)
