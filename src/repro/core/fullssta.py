"""FULLSSTA — the accurate discrete-PDF statistical timing engine (paper §4.2).

The outer loop of the optimization runs this engine.  Every gate delay is
discretized into a small pdf (10-15 samples, following Liou et al. DAC 2001)
and arrival times are propagated as discrete pdfs using the ``sum``
(convolution) and ``max`` (pairwise-max reduction) operations of
:class:`~repro.core.discrete_pdf.DiscretePDF`.  :meth:`FULLSSTA.analyze`
runs them levelized over padded sample arrays (one
:func:`~repro.core.discrete_pdf.batched_combine` per input position per
level of the circuit's compiled IR), replaying the canonicalize/compact
arithmetic of the per-pdf operations; its moments agree with a gate-by-gate
walk (the reference oracle in ``tests/reference.py``) to ~1e-12.

Besides the output pdf, the engine records the mean and variance at *every*
node — the paper stores exactly these point values "for use in the fast
timing engine (FASSTA)" and the WNSS tracer consumes them too.

An optional spatial-correlation overlay can inflate the output variance to
first order when a :class:`~repro.variation.correlation.SpatialCorrelationModel`
is supplied; the paper leaves correlation handling to "PCA or other methods"
in the outer loop, so this is provided as an extension and disabled by
default.

:class:`IncrementalReanalysis` wraps the engine with a per-net pdf cache:
after gate resizes it re-propagates only the transitive-fanout cone of the
changed gates (and of their fanin drivers, whose loads changed) and reuses
the cached pdfs everywhere else.  It folds gate by gate with the per-pdf
operations, from its first full build on, so untouched nets keep
bitwise-identical pdfs and the incremental result equals a from-scratch
gate-by-gate walk exactly — it is a pure wall-clock optimization, which is
what makes nesting FULLSSTA inside a sizing loop affordable at scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Set

import numpy as np

from repro.core.discrete_pdf import (
    DEFAULT_SAMPLES,
    DiscretePDF,
    batched_combine,
    batched_from_normal,
)
from repro.core.rv import NormalDelay, ZERO_DELAY
from repro.library.delay_model import BaseDelayModel
from repro.netlist.circuit import Circuit
from repro.obs import METRICS, span
from repro.variation.correlation import SpatialCorrelationModel
from repro.variation.model import VariationModel


@dataclass
class FullSstaResult:
    """Per-node pdfs and moments produced by one FULLSSTA run."""

    arrival_pdfs: Dict[str, DiscretePDF]
    arrival_moments: Dict[str, NormalDelay]
    gate_delay_moments: Dict[str, NormalDelay]
    output_pdf: DiscretePDF
    output_rv: NormalDelay
    worst_output: str

    def arrival(self, net: str) -> NormalDelay:
        """Arrival moments at ``net`` (0 for primary inputs / unknown nets)."""
        return self.arrival_moments.get(net, ZERO_DELAY)

    def arrival_pdf(self, net: str) -> Optional[DiscretePDF]:
        return self.arrival_pdfs.get(net)

    @property
    def mean(self) -> float:
        return self.output_rv.mean

    @property
    def sigma(self) -> float:
        return self.output_rv.sigma


class FULLSSTA:
    """Discrete-PDF statistical static timing analysis.

    Parameters
    ----------
    delay_model / variation_model:
        Same substrates FASSTA uses; the two engines always see identical
        gate-delay distributions, only the propagation math differs.
    num_samples:
        Samples kept per pdf (the paper's "10-15 samples"; default 13).
    correlation_model:
        Optional spatial-correlation overlay (see module docstring).
    worst_key:
        Ranking criterion used to report :attr:`FullSstaResult.worst_output`.
        Defaults to the raw mean (a ``lambda = 0`` objective); the sizer
        passes its weighted cost ``mu + lambda * sigma`` so the reported
        worst output matches the optimization objective.
    """

    def __init__(
        self,
        delay_model: BaseDelayModel,
        variation_model: VariationModel,
        num_samples: int = DEFAULT_SAMPLES,
        correlation_model: Optional[SpatialCorrelationModel] = None,
        worst_key: Optional[Callable[[NormalDelay], float]] = None,
    ) -> None:
        if num_samples < 3:
            raise ValueError("num_samples must be at least 3 for a useful pdf")
        self.delay_model = delay_model
        self.variation_model = variation_model
        self.num_samples = num_samples
        self.correlation_model = correlation_model
        self.worst_key = worst_key

    # ------------------------------------------------------------------
    def gate_delay_pdf(self, circuit: Circuit, gate_name: str) -> DiscretePDF:
        """Discretized delay pdf of one gate at its current size."""
        gate = circuit.gate(gate_name)
        dist = self.variation_model.gate_distribution(circuit, gate, self.delay_model)
        return DiscretePDF.from_normal(dist.mean, dist.sigma, self.num_samples)

    # ------------------------------------------------------------------
    def analyze(
        self,
        circuit: Circuit,
        boundary_arrivals: Optional[Mapping[str, DiscretePDF]] = None,
        outputs: Optional[List[str]] = None,
    ) -> FullSstaResult:
        """Propagate discrete-pdf arrival times through ``circuit``.

        Requested ``outputs`` must exist in the circuit (or the boundary
        map); unknown names raise ``KeyError`` instead of silently timing as
        zero.
        """
        METRICS.counter("fullssta.runs")
        with span("fullssta.analyze") as sp:
            arrivals, gate_delay_moments = self._propagate(circuit, boundary_arrivals)
            sp.set(gates=len(gate_delay_moments))
        arrival_moments = {
            net: NormalDelay(pdf.mean(), pdf.std()) for net, pdf in arrivals.items()
        }
        return self._build_result(
            circuit, arrivals, arrival_moments, gate_delay_moments, outputs
        )

    # ------------------------------------------------------------------
    def _propagate(
        self,
        circuit: Circuit,
        boundary_arrivals: Optional[Mapping[str, DiscretePDF]],
    ) -> "tuple[Dict[str, DiscretePDF], Dict[str, NormalDelay]]":
        """Levelized batched propagation over padded (net, sample) arrays.

        Every net owns one row of the ``values``/``probs`` state arrays
        (padding convention of :mod:`repro.core.discrete_pdf`); each level
        folds its gates' input rows pairwise with masked
        :func:`batched_combine` calls — the left-to-right fold order of
        :meth:`DiscretePDF.maximum_of` — then convolves the fold with the
        level's batched gate delay pdfs and scatters the rows to the output
        nets.
        """
        plan = circuit.compiled()

        # Boundary pdfs may carry more samples than the engine budget; they
        # are folded at full width (only the *results* are compacted), so
        # the state arrays are sized for the widest row.
        extra_boundary: Dict[str, DiscretePDF] = {}
        known_boundary: Dict[str, DiscretePDF] = {}
        boundary_nets: Set[str] = set()
        if boundary_arrivals:
            for net, pdf in boundary_arrivals.items():
                if net in plan.net_index:
                    known_boundary[net] = pdf
                    boundary_nets.add(net)
                else:
                    # Net unknown to this circuit: keep it visible in the
                    # result map all the same.
                    extra_boundary[net] = pdf
        num_samples = self.num_samples
        width = max(
            [num_samples, *(pdf.num_samples for pdf in known_boundary.values())]
        )
        values = np.zeros((plan.num_nets, width))
        probs = np.zeros((plan.num_nets, width))
        probs[:, 0] = 1.0  # every slot starts as the point pdf at 0.0
        counts = np.ones(plan.num_nets, dtype=np.intp)

        def scatter(slot_ids, row_values, row_probs, row_counts) -> None:
            n = row_values.shape[1]
            values[slot_ids, :n] = row_values
            probs[slot_ids, :n] = row_probs
            if width > n:
                values[slot_ids, n:] = row_values[:, -1:]
                probs[slot_ids, n:] = 0.0
            counts[slot_ids] = row_counts

        for net, pdf in known_boundary.items():
            idx = plan.net_index[net]
            scatter(
                np.array([idx]),
                pdf.values[None, :],
                pdf.probabilities[None, :],
                pdf.num_samples,
            )

        gate_delay_moments: Dict[str, NormalDelay] = {}
        for block in plan.levels:
            names, out_ids = block.names, block.out_slots
            in_ids, in_mask = block.in_slots, block.in_mask
            d_mu = np.empty(len(names))
            d_sg = np.empty(len(names))
            for row, name in enumerate(names):
                dist = self.variation_model.gate_distribution(
                    circuit, circuit.gate(name), self.delay_model
                )
                gate_delay_moments[name] = NormalDelay(dist.mean, dist.sigma)
                d_mu[row] = dist.mean
                d_sg[row] = dist.sigma
            delay_values, delay_probs, _ = batched_from_normal(
                d_mu, d_sg, num_samples
            )

            # Left-to-right pairwise fold over input positions, masked so a
            # gate with fewer inputs keeps its running max untouched — the
            # same fold order as DiscretePDF.maximum_of.
            # The running rows start at the state width (wide when boundary
            # pdfs exceed the budget); combine results are padded back to it
            # so masked-out rows merge shape-compatibly.
            worst_values = values[in_ids[:, 0]]
            worst_probs = probs[in_ids[:, 0]]
            for col in range(1, in_ids.shape[1]):
                mask = in_mask[:, col]
                max_values, max_probs, _ = batched_combine(
                    worst_values,
                    worst_probs,
                    values[in_ids[:, col]],
                    probs[in_ids[:, col]],
                    "max",
                    num_samples,
                )
                pad = worst_values.shape[1] - max_values.shape[1]
                if pad > 0:
                    max_values = np.concatenate(
                        [max_values, np.repeat(max_values[:, -1:], pad, axis=1)],
                        axis=1,
                    )
                    max_probs = np.concatenate(
                        [max_probs, np.zeros((max_probs.shape[0], pad))], axis=1
                    )
                worst_values = np.where(mask[:, None], max_values, worst_values)
                worst_probs = np.where(mask[:, None], max_probs, worst_probs)

            out_values, out_probs, out_counts = batched_combine(
                worst_values, worst_probs, delay_values, delay_probs, "add",
                num_samples,
            )
            scatter(out_ids, out_values, out_probs, out_counts)

        arrivals = {
            net: DiscretePDF._from_canonical(
                values[idx, : counts[idx]].copy(), probs[idx, : counts[idx]].copy()
            )
            for net, idx in plan.net_index.items()
            if net not in plan.floating or net in boundary_nets
        }
        arrivals.update(extra_boundary)
        return arrivals, gate_delay_moments

    # ------------------------------------------------------------------
    def _build_result(
        self,
        circuit: Circuit,
        arrivals: Dict[str, DiscretePDF],
        arrival_moments: Dict[str, NormalDelay],
        gate_delay_moments: Dict[str, NormalDelay],
        outputs: Optional[List[str]],
    ) -> FullSstaResult:
        """Assemble a :class:`FullSstaResult` from propagated per-net state.

        Shared by :meth:`analyze` and :class:`IncrementalReanalysis`
        so the output max, correlation inflation and worst-output ranking
        are computed identically in both.
        """
        output_nets = outputs if outputs is not None else circuit.primary_outputs
        if not output_nets:
            raise ValueError(f"circuit {circuit.name!r} has no outputs to time")
        missing = [net for net in output_nets if net not in arrivals]
        if missing:
            raise KeyError(
                f"unknown output net(s) {missing} in circuit {circuit.name!r}"
            )
        output_pdfs = [arrivals[net] for net in output_nets]
        output_pdf = DiscretePDF.maximum_of(output_pdfs, self.num_samples)

        output_sigma = output_pdf.std()
        if self.correlation_model is not None:
            output_sigma = self._inflate_sigma_for_correlation(
                circuit, output_sigma, gate_delay_moments
            )
        output_rv = NormalDelay(output_pdf.mean(), output_sigma)
        key = self.worst_key or (lambda rv: rv.mean)
        worst_output = max(output_nets, key=lambda net: key(arrival_moments[net]))
        return FullSstaResult(
            arrival_pdfs=arrivals,
            arrival_moments=arrival_moments,
            gate_delay_moments=gate_delay_moments,
            output_pdf=output_pdf,
            output_rv=output_rv,
            worst_output=worst_output,
        )

    # ------------------------------------------------------------------
    def _inflate_sigma_for_correlation(
        self,
        circuit: Circuit,
        independent_sigma: float,
        gate_delay_moments: Dict[str, NormalDelay],
    ) -> float:
        """First-order variance correction for spatially correlated variation.

        Positive pairwise correlation along the dominant path adds
        ``2 * rho * sigma_i * sigma_j`` cross terms that the independent
        propagation misses.  We approximate the correction along the gates of
        the nominal critical path only, which keeps the cost linear in path
        length and matches how the correction is typically quoted.
        """
        from repro.sta.dsta import DeterministicSTA  # local import avoids a cycle

        dsta = DeterministicSTA(self.delay_model)
        path = dsta.critical_path(circuit)
        extra_var = 0.0
        for i, gate_i in enumerate(path):
            sigma_i = gate_delay_moments[gate_i].sigma
            for gate_j in path[i + 1:]:
                rho = self.correlation_model.correlation_between(gate_i, gate_j)
                sigma_j = gate_delay_moments[gate_j].sigma
                extra_var += 2.0 * rho * sigma_i * sigma_j
        return float((independent_sigma ** 2 + max(extra_var, 0.0)) ** 0.5)

    # ------------------------------------------------------------------
    def output_moments(self, circuit: Circuit) -> NormalDelay:
        """Shortcut: moments of the circuit-level output arrival."""
        return self.analyze(circuit).output_rv


class IncrementalReanalysis:
    """Incremental FULLSSTA over one circuit, driven by its size-change log.

    The wrapper keeps the last committed run's per-net arrival pdfs/moments,
    the per-gate delay moments and the gate sizes they were computed at.  On
    :meth:`analyze` it reads the gate names resized since the previous call
    (recorded by :meth:`~repro.netlist.circuit.Circuit.set_size`), keeps
    only those whose size actually differs from the cached state (resizes
    that cancelled out — trial then revert — are recognised as clean), and
    re-propagates only the gates whose timing can actually have moved:

    * every net-resized gate (its drive, intrinsic delay and sigma changed),
    * the drivers of its input nets (the resized gate's input capacitance is
      part of *their* load),
    * downstream gates, recursively — but propagation stops as soon as a
      recomputed pdf is bitwise-identical to the cached one, which happens
      quickly once a dominant side path reasserts itself.

    :meth:`preview` evaluates the pending resizes *without* committing them
    to the cache; a caller trying a candidate resize calls ``preview``,
    then either :meth:`commit_preview` (keep it) or simply reverts the
    resize via ``set_size`` (the cancelled pair then costs nothing).  This
    is what makes the sizer's accept/reject trial loop cheap.

    Every build, the first included, runs the same gate-by-gate cone fold,
    so results are bitwise-equal to a from-scratch gate-by-gate walk and
    agree with the levelized :meth:`FULLSSTA.analyze` to ~1e-12.  Bitwise
    stability is what the wavefront cut-off above relies on.  Contract: all
    persistent resizes must go through ``Circuit.set_size`` (direct
    ``Gate.size_index`` writes bypass the log); structural edits are
    detected via ``structure_version`` and trigger a full rebuild
    automatically.
    """

    def __init__(self, engine: FULLSSTA, circuit: Circuit) -> None:
        self.engine = engine
        self.circuit = circuit
        self._cursor = 0
        self._structure_version: Optional[int] = None
        self._arrival_pdfs: Optional[Dict[str, DiscretePDF]] = None
        self._arrival_moments: Dict[str, NormalDelay] = {}
        self._gate_delay_moments: Dict[str, NormalDelay] = {}
        self._gate_delay_pdfs: Dict[str, DiscretePDF] = {}
        self._cached_sizes: Dict[str, int] = {}
        self._pending: Optional[_PendingDelta] = None
        # Diagnostics (cumulative over the wrapper's lifetime).
        self.full_runs = 0
        self.incremental_runs = 0
        self.preview_runs = 0
        self.gates_retimed = 0

    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Drop the cache; the next :meth:`analyze` runs from scratch."""
        self._arrival_pdfs = None
        self._pending = None

    @property
    def stats(self) -> Dict[str, int]:
        """Cumulative run counters (full runs, incremental runs, gates retimed)."""
        return {
            "full_runs": self.full_runs,
            "incremental_runs": self.incremental_runs,
            "preview_runs": self.preview_runs,
            "gates_retimed": self.gates_retimed,
        }

    # ------------------------------------------------------------------
    def analyze(self) -> FullSstaResult:
        """Full-circuit FULLSSTA result, reusing cached pdfs where possible."""
        self._pending = None
        circuit = self.circuit
        if (
            self._arrival_pdfs is None
            or self._structure_version != circuit.structure_version
        ):
            return self._full_rebuild()

        dirty = self._net_dirty_gates(self._cursor)
        if dirty is None:
            return self._full_rebuild()
        self._cursor = circuit.size_change_cursor

        self.incremental_runs += 1
        METRICS.counter("incremental.runs")
        if dirty:
            delta = self._compute_delta(dirty)
            self._apply_delta(delta)
        return self.engine._build_result(
            circuit,
            dict(self._arrival_pdfs),
            dict(self._arrival_moments),
            dict(self._gate_delay_moments),
            outputs=None,
        )

    # ------------------------------------------------------------------
    def preview(self) -> Optional[FullSstaResult]:
        """Evaluate pending resizes against the cache without committing.

        Returns ``None`` when the cache cannot answer incrementally (no
        prior run, or a structural change) — callers should fall back to
        :meth:`analyze`.  Otherwise the result reflects the circuit's
        current sizes while the cache keeps the previously committed state;
        call :meth:`commit_preview` to fold the evaluated delta in, or
        revert the resizes (via ``set_size``) to discard it for free.
        """
        circuit = self.circuit
        if (
            self._arrival_pdfs is None
            or self._structure_version != circuit.structure_version
        ):
            return None
        dirty = self._net_dirty_gates(self._cursor)
        if dirty is None:
            return None

        self.preview_runs += 1
        METRICS.counter("incremental.preview_runs")
        delta = self._compute_delta(dirty)
        self._pending = delta
        merged_pdfs = dict(self._arrival_pdfs)
        merged_pdfs.update(delta.arrival_pdfs)
        merged_moments = dict(self._arrival_moments)
        merged_moments.update(delta.arrival_moments)
        merged_gates = dict(self._gate_delay_moments)
        merged_gates.update(delta.gate_delay_moments)
        return self.engine._build_result(
            circuit, merged_pdfs, merged_moments, merged_gates, outputs=None
        )

    def commit_preview(self) -> bool:
        """Fold the last :meth:`preview` delta into the cache.

        Returns False (and leaves the cache untouched) when no preview is
        pending or further resizes happened after it — the next
        :meth:`analyze`/:meth:`preview` then recomputes from the log as
        usual, so a refused commit is safe, just not free.
        """
        delta = self._pending
        if delta is None or delta.cursor != self.circuit.size_change_cursor:
            return False
        self._apply_delta(delta)
        self._cursor = delta.cursor
        self._pending = None
        return True

    # ------------------------------------------------------------------
    def _net_dirty_gates(self, since_cursor: int) -> Optional[Set[str]]:
        """Gates whose delay may differ from the cached state, or None.

        Compares each logged gate's *current* size against the size the
        cache was computed at, so resize sequences that cancel out are
        recognised as clean.  Returns ``None`` when the log references a
        gate the circuit no longer has (defensive: callers rebuild).
        """
        circuit = self.circuit
        dirty: Set[str] = set()
        for name in circuit.size_changes_since(since_cursor):
            if not circuit.has_gate(name):
                return None
            if circuit.gate(name).size_index == self._cached_sizes.get(name):
                continue
            dirty.add(name)
            for gate in circuit.fanin_gates(name):
                dirty.add(gate.name)
        return dirty

    # ------------------------------------------------------------------
    def _full_rebuild(self) -> FullSstaResult:
        """Time every gate with the cone fold, starting from the inputs.

        Primary inputs hold point pdfs at 0; every gate is dirty and the
        cone is the whole (topologically ordered) gate range, so the fold
        visits each gate once in order.
        """
        circuit = self.circuit
        self._cursor = circuit.size_change_cursor
        self._structure_version = circuit.structure_version
        point_zero = DiscretePDF.point(0.0)
        self._arrival_pdfs = {net: point_zero for net in circuit.primary_inputs}
        self._arrival_moments = {
            net: NormalDelay(point_zero.mean(), point_zero.std())
            for net in circuit.primary_inputs
        }
        self._gate_delay_moments = {}
        self._gate_delay_pdfs = {}
        self._cached_sizes = circuit.sizes()
        plan = circuit.compiled()
        self._apply_delta(
            self._compute_delta(set(plan.gate_names), cone=range(plan.num_gates))
        )
        self.full_runs += 1
        METRICS.counter("incremental.full_runs")
        return self.engine._build_result(
            circuit,
            dict(self._arrival_pdfs),
            dict(self._arrival_moments),
            dict(self._gate_delay_moments),
            outputs=None,
        )

    # ------------------------------------------------------------------
    def _compute_delta(
        self, dirty_delay: Set[str], cone: Optional[Iterable[int]] = None
    ) -> "_PendingDelta":
        """Recompute the cone of ``dirty_delay`` gates into an overlay.

        Candidate gates come from the compiled IR's fanout CSR: the dirty
        gates plus their transitive fanout, as a topologically sorted index
        range — gates outside that cone can never need recomputation, so the
        sweep is O(cone) instead of a full-circuit scan.  A caller that
        already knows the cone (the full rebuild) passes it instead.  Within
        the cone a gate is recomputed when its own delay is dirty or any of
        its input nets changed; its output is marked changed only when the
        new pdf differs from the cached one, so the wavefront dies out as
        soon as the numbers reconverge.  The cache itself is not touched.
        """
        engine = self.engine
        circuit = self.circuit
        cache = self._arrival_pdfs
        delta = _PendingDelta(cursor=circuit.size_change_cursor)
        if not dirty_delay:
            return delta
        overlay = delta.arrival_pdfs
        changed_nets: Set[str] = set()
        point_zero = DiscretePDF.point(0.0)

        plan = circuit.compiled()
        if cone is None:
            dirty_cone = plan.fanout_cone(plan.gate_index[name] for name in dirty_delay)
            # The per-resize dirty-cone size is the quantity that makes (or
            # breaks) the incremental win: its distribution is the headline
            # observability metric of this layer.
            METRICS.histogram("incremental.dirty_cone_gates", len(dirty_cone))
            cone = dirty_cone
        for gid in cone:
            gate = circuit.gate(plan.gate_names[gid])
            recompute = gate.name in dirty_delay or any(
                net in changed_nets for net in gate.inputs
            )
            if not recompute:
                continue
            self.gates_retimed += 1
            if gate.name in dirty_delay:
                # The gate's own delay distribution moved (its size or one
                # of its fanout's input caps changed): re-derive it.  The
                # pdf goes into the delta, not the shared cache — a preview
                # must not leak trial delays.
                dist = engine.variation_model.gate_distribution(
                    circuit, gate, engine.delay_model
                )
                delta.gate_delay_moments[gate.name] = NormalDelay(
                    dist.mean, dist.sigma
                )
                delay_pdf = DiscretePDF.from_normal(
                    dist.mean, dist.sigma, engine.num_samples
                )
                delta.gate_delay_pdfs[gate.name] = delay_pdf
            else:
                # Only the gate's *inputs* changed; its delay pdf is
                # bitwise-identical to the committed state, so rebuild it
                # from the cached moments at most once.
                delay_pdf = self._gate_delay_pdfs.get(gate.name)
                if delay_pdf is None:
                    rv = self._gate_delay_moments[gate.name]
                    delay_pdf = DiscretePDF.from_normal(
                        rv.mean, rv.sigma, engine.num_samples
                    )
                    self._gate_delay_pdfs[gate.name] = delay_pdf
            input_pdfs = [
                overlay[net] if net in overlay else cache.get(net, point_zero)
                for net in gate.inputs
            ]
            if len(input_pdfs) == 1:
                worst_input = input_pdfs[0]
            else:
                worst_input = DiscretePDF.maximum_of(input_pdfs, engine.num_samples)
            new_pdf = worst_input.add(delay_pdf, engine.num_samples)

            old_pdf = cache.get(gate.output)
            if old_pdf is not None and _pdfs_equal(old_pdf, new_pdf):
                continue
            overlay[gate.output] = new_pdf
            delta.arrival_moments[gate.output] = NormalDelay(
                new_pdf.mean(), new_pdf.std()
            )
            changed_nets.add(gate.output)

        for name in dirty_delay:
            delta.sizes[name] = circuit.gate(name).size_index
        return delta

    def _apply_delta(self, delta: "_PendingDelta") -> None:
        self._arrival_pdfs.update(delta.arrival_pdfs)
        self._arrival_moments.update(delta.arrival_moments)
        self._gate_delay_moments.update(delta.gate_delay_moments)
        self._gate_delay_pdfs.update(delta.gate_delay_pdfs)
        self._cached_sizes.update(delta.sizes)


@dataclass
class _PendingDelta:
    """Uncommitted re-propagation overlay produced by one preview/analyze."""

    cursor: int
    arrival_pdfs: Dict[str, DiscretePDF] = field(default_factory=dict)
    arrival_moments: Dict[str, NormalDelay] = field(default_factory=dict)
    gate_delay_moments: Dict[str, NormalDelay] = field(default_factory=dict)
    gate_delay_pdfs: Dict[str, DiscretePDF] = field(default_factory=dict)
    sizes: Dict[str, int] = field(default_factory=dict)


def _pdfs_equal(a: DiscretePDF, b: DiscretePDF) -> bool:
    """Bitwise equality of two discrete pdfs (sample locations and masses)."""
    return np.array_equal(a.values, b.values) and np.array_equal(
        a.probabilities, b.probabilities
    )
