"""The traced layers: which attributes are wrapped and what each reports.

``install`` wraps the public entry points of every layer the benchmark
splits time over; ``per_layer`` turns the spans, the captured ledgers and
batch states and the workload's own counters into the per-layer metrics
listed in ``BENCHMARK.json``.  Every traced run reports every metric; a
layer a workload does not reach reports 0.

Time metrics are seconds per set-up for the set-up layers (those tagged
``setup`` below) and seconds per request for the rest, where a request is
one round of solves (``tiled-gset``, ``replica-sweep``) or one job
(``serve-open``).
"""

from __future__ import annotations

import time

from measure import median, overhead_share, tail

import repro.arch.cim_annealer as cim_annealer
import repro.core.batch as batch
import repro.core.partition as partition
import repro.core.plan as plan
import repro.core.reorder as reorder
import repro.core.sb as sb
import repro.serve.service as service
from repro.arch.tiling import TiledCrossbar
from repro.circuits.crossbar import DgFefetCrossbar
from repro.core.annealer import InSituAnnealer
from repro.core.coupling import FloatBatchState, SparseCouplingOps
from repro.core.packed import PackedBatchState, PackedCouplingOps
from repro.ising.maxcut import MaxCutProblem
from repro.ising.packed import PackedIsingModel

#: (metric, unit, better) for every per-layer metric, in report order.
PER_LAYER = [
    ("ising.to_ising_s", "s", "lower"),
    ("core.plan.compile_s", "s", "lower"),
    ("core.reorder.layout_s", "s", "lower"),
    ("core.reorder.rcm_s", "s", "lower"),
    ("core.partition.partition_s", "s", "lower"),
    ("arch.cim_annealer.program_s", "s", "lower"),
    ("arch.tiling.active_tiles", "count", "lower"),
    ("arch.tiling.occupancy", "share", "lower"),
    ("core.plan.execute_s", "s", "lower"),
    ("core.annealer.self_s", "s", "lower"),
    ("core.annealer.accept_ratio", "share", "higher"),
    ("arch.tiling.increment_s", "s", "lower"),
    ("arch.tiling.increment_calls", "count", "lower"),
    ("circuits.crossbar.eval_s", "s", "lower"),
    ("circuits.crossbar.tile_evals_per_iter", "count", "lower"),
    ("sim.energy_nJ", "nJ", "lower"),
    ("sim.time_us", "us", "lower"),
    ("sim.program_nJ", "nJ", "lower"),
    ("sim.adc_nJ", "nJ", "lower"),
    ("sim.shift_add_nJ", "nJ", "lower"),
    ("sim.drivers_nJ", "nJ", "lower"),
    ("sim.bg_dac_nJ", "nJ", "lower"),
    ("sim.logic_nJ", "nJ", "lower"),
    ("sim.adc_us", "us", "lower"),
    ("sim.drivers_us", "us", "lower"),
    ("sim.bg_dac_us", "us", "lower"),
    ("sim.logic_us", "us", "lower"),
    ("sim.adc_conversions", "count", "lower"),
    ("core.batch.run_s.packed", "s", "lower"),
    ("core.batch.run_s.float", "s", "lower"),
    ("core.batch.self_s", "s", "lower"),
    ("core.proposal.tensor_s", "s", "lower"),
    ("core.proposal.scan_order_s", "s", "lower"),
    ("core.coupling.cross_term_s", "s", "lower"),
    ("core.coupling.update_fields_s", "s", "lower"),
    ("core.coupling.record_best_s", "s", "lower"),
    ("core.coupling.record_best_calls", "count", "lower"),
    ("core.batch.accept_ratio", "share", "higher"),
    ("core.batch.state_bytes", "bytes", "lower"),
    ("serve.jobs_per_s", "1/s", "higher"),
    ("serve.p50_ms_low", "ms", "lower"),
    ("serve.tail_ms_low", "ms", "lower"),
    ("serve.p50_ms_high", "ms", "lower"),
    ("serve.tail_ms_high", "ms", "lower"),
    ("serve.slo_jobs_per_s", "1/s", "higher"),
    ("serve.queue_wait_ms_p50", "ms", "lower"),
    ("serve.queue_wait_ms_tail", "ms", "lower"),
    ("serve.jobs_per_batch", "count", "higher"),
    ("serve.packed_share", "share", "higher"),
    ("serve.generator_late_ms", "ms", "lower"),
    ("core.blockstack.compile_lane_s", "s", "lower"),
    ("core.blockstack.run_stacked_s", "s", "lower"),
    ("core.plan.cache_hit_ratio", "share", "higher"),
    ("core.plan.cache_evictions", "count", "lower"),
    ("core.sb.solve_s", "s", "lower"),
    ("trace.overhead.setup_share", "share", "lower"),
    ("trace.overhead.run_share", "share", "lower"),
]

#: metric -> (phase, span name, "total" | "self" | "calls").
SPAN_METRICS = {
    "ising.to_ising_s": ("setup", "ising.to_ising", "total"),
    "core.plan.compile_s": ("setup", "core.plan.compile", "total"),
    "core.reorder.layout_s": ("setup", "core.reorder.layout", "total"),
    "core.reorder.rcm_s": ("setup", "core.reorder.rcm", "total"),
    "core.partition.partition_s": ("setup", "core.partition.partition", "total"),
    "arch.cim_annealer.program_s": ("setup", "arch.cim_annealer.program", "self"),
    "core.plan.execute_s": ("run", "core.plan.execute", "total"),
    "core.annealer.self_s": ("run", "core.annealer.run", "self"),
    "arch.tiling.increment_s": ("run", "arch.tiling.increment", "self"),
    "arch.tiling.increment_calls": ("run", "arch.tiling.increment", "calls"),
    "circuits.crossbar.eval_s": ("run", "circuits.crossbar.eval", "total"),
    "core.batch.run_s.packed": ("run", "core.batch.run.packed", "total"),
    "core.batch.run_s.float": ("run", "core.batch.run.float", "total"),
    "core.proposal.tensor_s": ("run", "core.proposal.tensor", "total"),
    "core.proposal.scan_order_s": ("run", "core.proposal.scan_order", "total"),
    "core.coupling.cross_term_s": ("run", "core.coupling.cross_term", "total"),
    "core.coupling.update_fields_s": ("run", "core.coupling.update_fields", "total"),
    "core.coupling.record_best_s": ("run", "core.coupling.record_best", "total"),
    "core.coupling.record_best_calls": ("run", "core.coupling.record_best", "calls"),
    "core.blockstack.compile_lane_s": ("run", "core.blockstack.compile_lane", "total"),
    "core.blockstack.run_stacked_s": ("run", "core.blockstack.run_stacked", "total"),
    "core.sb.solve_s": ("run", "core.sb.solve", "total"),
}

#: Ledger component -> (energy metric, time metric or None).
LEDGER_METRICS = {
    "program": ("sim.program_nJ", None),
    "adc": ("sim.adc_nJ", "sim.adc_us"),
    "shift_add": ("sim.shift_add_nJ", None),
    "drivers": ("sim.drivers_nJ", "sim.drivers_us"),
    "bg_dac": ("sim.bg_dac_nJ", "sim.bg_dac_us"),
    "logic": ("sim.logic_nJ", "sim.logic_us"),
}


class Captures:
    """Objects the wrappers hand over: ledgers, batch states, batch starts."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.ledgers: list[tuple[str, object, object]] = []
        self.state_bytes = 0
        self.batch_started: dict[str, float] = {}
        self._batches = 0

    def ledger(self, args, result) -> None:
        self.ledgers.append(
            (self.tracer.phase, self.tracer.current_op(), result.ledger)
        )

    def state(self, args, result) -> None:
        # Sized as created: a batch state allocates all its arrays up front.
        self.state_bytes = max(self.state_bytes, result.memory_bytes())

    def batch(self, args) -> str:
        now = time.perf_counter()
        for job in args[1]:
            self.batch_started[job.job_id] = now
        self._batches += 1
        return f"batch-{self._batches}"


def _batch_name(args) -> str:
    kind = "packed" if isinstance(args[0].model, PackedIsingModel) else "float"
    return f"core.batch.run.{kind}"


def install(tracer) -> Captures:
    """Wrap every traced layer's entry points; returns the capture sink."""
    cap = Captures(tracer)
    wrap = tracer.wrap
    wrap(MaxCutProblem, "to_ising", "ising.to_ising")
    wrap(plan, "compile_plan", "core.plan.compile")
    wrap(plan, "reorder_permutation", "core.reorder.layout")
    wrap(reorder, "rcm_permutation", "core.reorder.rcm")
    wrap(partition, "partition_permutation", "core.partition.partition")
    wrap(cim_annealer, "compile_cim_program", "arch.cim_annealer.program")
    wrap(plan.SolvePlan, "execute", "core.plan.execute")
    wrap(cim_annealer.InSituCimAnnealer, "run", "arch.cim_annealer.run",
         on_result=cap.ledger)
    wrap(InSituAnnealer, "run", "core.annealer.run")
    wrap(TiledCrossbar, "compute_increment", "arch.tiling.increment")
    wrap(DgFefetCrossbar, "compute_increment", "circuits.crossbar.eval")
    wrap(batch._BatchEngine, "run", _batch_name)
    wrap(batch._BatchEngine, "_proposal_tensor", "core.proposal.tensor")
    wrap(batch, "scan_order", "core.proposal.scan_order")
    wrap(SparseCouplingOps, "batch_cross_term", "core.coupling.cross_term")
    wrap(SparseCouplingOps, "batch_update_fields", "core.coupling.update_fields")
    wrap(FloatBatchState, "record_best", "core.coupling.record_best")
    wrap(PackedBatchState, "record_best", "core.coupling.record_best")
    wrap(SparseCouplingOps, "make_batch_state", "core.coupling.make_state",
         on_result=cap.state)
    wrap(PackedCouplingOps, "make_batch_state", "core.coupling.make_state",
         on_result=cap.state)
    wrap(service.SolverService, "_solve_batch", "serve.batch",
         on_call=cap.batch)
    wrap(service, "compile_lane", "core.blockstack.compile_lane")
    wrap(service, "run_stacked", "core.blockstack.run_stacked")
    wrap(sb, "solve_sb", "core.sb.solve")
    return cap


def per_layer(totals, pairs, cap: Captures, outcome) -> dict[str, float]:
    """Assemble every per-layer metric (0 where a layer was not reached).

    ``totals`` and ``pairs`` are the tracer's span totals and paired
    (untraced, traced) samples per unit kind.  ``outcome`` is the traced
    run's :class:`~measure.Outcome`: its ``counters`` are the workload's
    own per-layer values, and the ``sim.*`` metrics average the ledgers of
    its ``quality_ops`` requests.
    """
    setups, requests = outcome.setups, outcome.requests
    out = {name: 0.0 for name, _, _ in PER_LAYER}
    for metric, (phase, span, field) in SPAN_METRICS.items():
        row = totals.get((phase, span))
        if row is None:
            continue
        per = setups if phase == "setup" else requests
        out[metric] = row[field] / per
    batch_self = sum(
        totals.get(("run", f"core.batch.run.{kind}"), {"self": 0.0})["self"]
        for kind in ("packed", "float")
    )
    out["core.batch.self_s"] = batch_self / requests
    evals = totals.get(("run", "circuits.crossbar.eval"))
    if evals is not None and outcome.serial_iterations:
        out["circuits.crossbar.tile_evals_per_iter"] = (
            evals["calls"] / outcome.serial_iterations
        )
    ledgers = [
        ledger for phase, op, ledger in cap.ledgers
        if phase == "run" and op in outcome.quality_ops
    ]
    if ledgers:
        count = len(ledgers)
        for component, (energy_metric, time_metric) in LEDGER_METRICS.items():
            out[energy_metric] = sum(
                lg.entries[component].energy for lg in ledgers
            ) * 1e9 / count
            if time_metric is not None:
                out[time_metric] = sum(
                    lg.entries[component].time for lg in ledgers
                ) * 1e6 / count
        out["sim.adc_conversions"] = sum(
            lg.entries["adc"].count for lg in ledgers
        ) / count
        out["sim.energy_nJ"] = sum(lg.total_energy for lg in ledgers) * 1e9 / count
        out["sim.time_us"] = sum(lg.total_time for lg in ledgers) * 1e6 / count
    out["core.batch.state_bytes"] = float(cap.state_bytes)
    waits = [
        (cap.batch_started[job] - due) * 1e3
        for job, due in outcome.due_times.items() if job in cap.batch_started
    ]
    if waits:
        found = tail(waits)
        out["serve.queue_wait_ms_p50"] = median(waits)
        out["serve.queue_wait_ms_tail"] = found[1] if found else 0.0
    for kind in ("setup", "run"):
        if pairs.get(kind):
            out[f"trace.overhead.{kind}_share"] = overhead_share(pairs[kind])
    out.update(outcome.counters)
    return out
