"""Vectorised multi-replica annealing: the lane loop of Algorithm 1.

The paper's evaluation runs 100 independent annealing runs per instance
(Sec. 4.1).  Running them one by one in Python pays the interpreter
overhead 100×; this module advances ``R`` independent replicas of
Algorithm 1 *simultaneously* with array-wide numpy operations — one
gather/scatter per iteration regardless of R.

It holds the batch shape of Algorithm 1, written once: :func:`_run_lanes`
advances ``(R, k)`` replica × lane tensors, where a *lane* is one run's
frozen draws (:class:`StackedLane`).  A batch engine draws its lane
(:meth:`_BatchEngine._draw`: schedule → initial state → proposal tensor
→ accept uniforms) and runs it with ``k = 1`` on its own model; the
service's block-stacked runs (:mod:`repro.core.blockstack`) hand the
same loop ``k`` lanes over a block-diagonal union.  Each accept rule
(:func:`_accept_insitu`, :func:`_accept_metropolis`) is defined once.

Semantics match the serial annealers for any constant flip-set size
``t = flips_per_iteration >= 1``: same proposal modes, schedules and
accept rules, and the same rank-``t`` incremental-E mathematics — each
replica is bit-identical to a straight-line per-replica loop over the
*serial* coupling ops whenever sums are exact (dyadic couplings;
``tests/test_batch_multiflip.py`` pins this).  Replica r is *not* the
serial run with seed r — the draws are made up front, not lazily — but
the ensembles are statistically equivalent.  A ``permutation`` declares
the model a relabelled view: draws stay in the caller's spin space and
readouts are mapped back, so reordered replica solves are
layout-independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.annealer import _Engine, _InSituRule
from repro.core.coupling import coupling_ops
from repro.core.factors import FractionalFactor, VbgEncoder
from repro.core.proposal import random_flip_sets, scan_order
from repro.core.results import CutNormalization
from repro.core.sa import T_FLOOR, _MetropolisRule
from repro.core.schedule import Schedule
from repro.ising.model import IsingModel
from repro.ising.sparse import SparseIsingModel
from repro.utils.validation import check_count


@dataclass
class BatchAnnealResult:
    """Outcome of a replica batch.

    Attributes
    ----------
    best_energies / best_sigmas:
        Per-replica best energy (R,) and configuration (R, n).
    final_energies / final_sigmas:
        Per-replica final state.
    accepted:
        Per-replica acceptance counts.
    iterations:
        Iterations executed (same for all replicas).
    """

    best_energies: np.ndarray
    best_sigmas: np.ndarray
    final_energies: np.ndarray
    final_sigmas: np.ndarray
    accepted: np.ndarray
    iterations: int

    @property
    def num_replicas(self) -> int:
        """Number of replicas ``R``."""
        return self.best_energies.shape[0]

    @property
    def best_replica(self) -> int:
        """Index of the replica holding the overall best energy."""
        return int(np.argmin(self.best_energies))

    @property
    def best_energy(self) -> float:
        """The overall best energy across replicas."""
        return float(self.best_energies[self.best_replica])

    @property
    def best_sigma(self) -> np.ndarray:
        """The overall best configuration across replicas."""
        return self.best_sigmas[self.best_replica]

    def best_cuts(self, problem) -> np.ndarray:
        """Per-replica best cut values for a Max-Cut problem."""
        return np.array(
            [problem.cut_from_energy(float(e)) for e in self.best_energies]
        )


@dataclass
class BatchMaxCutResult(CutNormalization):
    """A :class:`BatchAnnealResult` interpreted against a Max-Cut instance.

    Attributes
    ----------
    anneal:
        The underlying replica-batch result.
    best_cuts:
        Per-replica best cut values (R,).
    reference_cut:
        Best-known cut used for normalisation, if given
        (``normalized_cut`` / ``is_success`` shared with
        :class:`~repro.core.results.MaxCutResult`).
    """

    anneal: BatchAnnealResult
    best_cuts: np.ndarray
    reference_cut: float | None = None

    @property
    def best_cut(self) -> float:
        """The best cut over all replicas (the protocol's reported value)."""
        return float(np.max(self.best_cuts))

    def summary(self) -> str:
        """One-line human-readable summary."""
        norm = self.normalized_cut
        norm_txt = f", normalised {norm:.3f}" if norm is not None else ""
        return (
            f"{self.anneal.num_replicas} replicas: best cut {self.best_cut:g} "
            f"(mean {float(np.mean(self.best_cuts)):g}){norm_txt}"
        )


@dataclass
class StackedLane:
    """One job's frozen batch run: model + every RNG draw of the run.

    Produced by :meth:`_BatchEngine._draw` (through
    :func:`~repro.core.blockstack.compile_lane` for served jobs); all
    stochastic inputs of the run (initial state, proposal tensor,
    per-iteration uniforms, schedule-derived accept parameters) are
    materialised here from the job's own seed stream, so the lane loop is
    deterministic given its lanes.  Spin indices and ``sigma0`` are in
    ``model``'s own ordering.
    """

    model: SparseIsingModel
    method: str
    iterations: int
    replicas: int
    flips_per_iteration: int
    sigma0: np.ndarray          # (R, n) float ±1, the initial draw
    proposals: np.ndarray       # (iterations, R, t) local spin indices
    uniforms: np.ndarray        # (iterations, R) accept draws
    factors: np.ndarray | None = None          # insitu: f(T) per iteration
    acceptance_scale: float | None = None      # insitu: the engine's gain
    temperatures: np.ndarray | None = None     # sa: floored T per iteration


def _accept_insitu(cross, field_term, factor, scale, u) -> np.ndarray:
    """Algorithm 1's rule: ``E_inc ≤ 0`` or ``E_inc ≤ u``.

    ``E_inc = (σ_rᵀJσ_c + field/2) · f · scale`` associated as ``(x · f) ·
    scale``, exactly like the serial in-situ step, so decisions agree to
    the last ulp at the comparison boundary.
    """
    e_inc = (cross + field_term / 2.0) * factor * scale
    return (e_inc <= 0.0) | (e_inc <= u)


def _accept_metropolis(delta_e, temperature, u) -> np.ndarray:
    """The direct-E rule: ``ΔE ≤ 0`` or ``u < exp(−ΔE/T)`` (``T`` floored)."""
    return (delta_e <= 0.0) | (u < np.exp(-np.maximum(delta_e, 0.0) / temperature))


def _run_lanes(model, lanes, starts=None, fwd=None) -> list[BatchAnnealResult]:
    """The lane loop: advance ``k`` lanes of ``R`` replicas together.

    All lanes share ``(method, iterations, replicas,
    flips_per_iteration)``.  With ``starts=None`` the single lane runs on
    its own ``model`` (the engine path; the run consumes the lane's
    ``sigma0`` as its state); otherwise ``model`` is the block-diagonal
    union and lane ``j`` owns columns ``starts[j]:starts[j] + n_j``.
    Every iteration advances the replica × lane tensors array-wide with
    per-(replica, lane) accept decisions; the lane axis exists only for
    ``k > 1``, so a single lane runs on plain ``(R, t)`` / ``(R,)``
    tensors.  Best states are tracked lazily: the loop records each
    (replica, lane)'s last improving iteration and an accept log, and the
    state materialises the snapshots once at the end by undoing the flips
    accepted after it (flip sets hold unique spins and lanes own disjoint
    column blocks, so each undone spin toggles by parity).  Cross terms,
    and energies of a lane are computed exactly as in a lone run
    (cross-block couplings are structurally zero), so every lane's result
    is bit-identical to its own single-lane run.  ``fwd`` maps the single
    lane's readouts back to the caller's spin order.
    """
    first = lanes[0]
    method, iterations, R, k = first.method, first.iterations, first.replicas, len(lanes)
    stacked = starts is not None
    if not stacked:
        starts = np.zeros(1, dtype=np.intp)
    blocks = [(lo, lo + lane.model.num_spins) for lo, lane in zip(starts, lanes)]
    if stacked:
        # Union initial state: each lane's draw in its block, padding +1.
        sigma = np.ones((R, model.num_spins), dtype=np.float64)
        for lane, (lo, hi) in zip(lanes, blocks):
            sigma[:, lo:hi] = lane.sigma0
    else:
        sigma = first.sigma0  # the engine path: the state takes the draw

    def per_lane(values):
        return values[0] if k == 1 else np.stack(values, axis=-1)

    # The replica spin tensor's layout is the backend's business:
    # FloatBatchState keeps the float (R, n) tensor, PackedBatchState
    # holds uint64 words with XOR flips.
    ops = coupling_ops(model)
    state = ops.make_batch_state(sigma)
    g = state.fields
    del sigma  # the state owns the replica spins from here on
    # Per-lane energies from each lane's own arrays (the contiguous field
    # slice reproduces a lone run's memory walk).
    energy = per_lane([
        np.einsum("rn,rn->r", lane.sigma0, np.ascontiguousarray(g[:, lo:hi]))
        + lane.sigma0 @ lane.model.h
        + lane.model.offset
        for lane, (lo, hi) in zip(lanes, blocks)
    ])
    best_energy = energy.copy()
    best_it = np.full(energy.shape, -1)  # -1: the initial state
    accept_log = np.zeros((iterations,) + energy.shape, dtype=bool)
    # (iterations, R[, k], t) union-column proposals and (iterations,
    # R[, k]) uniforms; the first block starts at column 0.
    props = first.proposals if k == 1 else np.stack(
        [lane.proposals + lo for lane, (lo, _) in zip(lanes, blocks)], axis=-2
    )
    uniforms = per_lane([lane.uniforms for lane in lanes])
    if method == "insitu":
        factors = per_lane([lane.factors for lane in lanes])
        scales = per_lane([lane.acceptance_scale for lane in lanes])
    else:
        temperatures = per_lane([lane.temperatures for lane in lanes])
    h = model.h
    fielded = np.array([lane.model.has_fields for lane in lanes], dtype=bool)
    any_fields = bool(fielded.any())
    all_fields = bool(fielded.all())

    rows = np.arange(R).reshape((R,) + (1,) * (props.ndim - 2))
    for it in range(iterations):
        idx = props[it]  # (R[, k], t)
        sig_f = state.gather(rows, idx)
        cross = ops.batch_cross_term(g, idx, sig_f)
        if any_fields:
            field = -(h[idx] * sig_f).sum(axis=-1)
            if not all_fields:
                # Field-free lanes use the lone run's scalar 0.0 exactly
                # (their union column is a sum of signed zeros otherwise).
                field[:, ~fielded] = 0.0
        else:
            field = 0.0
        delta = 4.0 * cross + 2.0 * field
        if method == "insitu":
            accept = _accept_insitu(cross, field, factors[it], scales, uniforms[it])
        else:
            accept = _accept_metropolis(delta, temperatures[it], uniforms[it])
        accept_log[it] = accept
        if accept.any():
            acc = np.nonzero(accept)  # (replica[, lane]) index arrays
            cols = idx[acc]       # (A, t)
            vals = sig_f[acc]     # (A, t)
            # Repeated replica rows are safe on the union: different
            # lanes' flips land in disjoint column blocks, so every flat
            # scatter index is unique.
            ops.batch_update_fields(g, acc[0], cols, vals)
            state.flip(acc[0], cols, vals)
            energy[acc] += delta[acc]
            improved = energy[acc] < best_energy[acc]
            if improved.any():
                imp = tuple(a[improved] for a in acc)
                best_energy[imp] = energy[imp]
                best_it[imp] = it

    # The best state is the final one with every flip accepted after the
    # last improvement undone; one parity toggle per listed spin.
    its = np.arange(iterations).reshape((-1,) + (1,) * energy.ndim)
    undo = accept_log & (its > best_it)
    state.record_best(np.nonzero(undo)[1], props[undo])
    accepted = accept_log.sum(axis=0, dtype=np.int64)
    # Readouts hand configurations back in the caller's original
    # ordering (the state applies the forward permutation, if any).
    best_sigmas = state.best_sigmas(fwd)
    final_sigmas = state.final_sigmas(fwd)
    energy, best_energy, accepted = (
        a.reshape(R, k) for a in (energy, best_energy, accepted)
    )
    return [
        BatchAnnealResult(
            best_energies=best_energy[:, j].copy(),
            best_sigmas=best_sigmas[:, lo:hi].copy(),
            final_energies=energy[:, j].copy(),
            final_sigmas=final_sigmas[:, lo:hi].copy(),
            accepted=accepted[:, j].copy(),
            iterations=iterations,
        )
        for j, (lo, hi) in enumerate(blocks)
    ]


class _BatchEngine(_Engine):
    """The replica-batch engines: draw a lane, run it on the lane loop.

    Subclasses provide ``method``, ``_build_schedule`` and
    ``_lane_terms(temperatures)`` — the schedule-derived accept
    parameters of their rule; everything else (validation, the draw
    order, state, proposals, permutation mapping) is common.  The
    constructor's defaults are the direct-E baseline's.
    """

    method = ""

    def __init__(
        self,
        model: IsingModel | SparseIsingModel,
        replicas: int,
        flips_per_iteration: int = 1,
        schedule: Schedule | None = None,
        proposal: str = "random",
        permutation=None,
        seed=None,
    ) -> None:
        self.replicas = check_count("replicas", replicas)
        self._init_engine(
            model, flips_per_iteration, schedule, proposal, permutation, seed
        )

    def _proposal_tensor(self, iterations: int) -> np.ndarray:
        """(iterations, R, t) spin indices — scan sweeps or uniform draws.

        Indices are unique within each ``(iteration, replica)`` flip set
        and drawn in the caller's original spin space (mirroring
        :class:`~repro.core.proposal.FlipSelector` semantics, including the
        straddle-safe per-sweep carry); :meth:`_draw` maps them through
        the permutation.  For ``t == 1`` the RNG stream is identical to
        the historical single-flip engine.
        """
        rng = self._rng
        R, t = self.replicas, self.flips_per_iteration
        if self.proposal == "random":
            if t == 1:
                return rng.integers(self.n, size=(iterations, R))[..., None]
            flat = random_flip_sets(rng, self.n, iterations * R, t)
            return flat.reshape(iterations, R, t)
        streams = [
            scan_order(self.n, t, iterations * t, rng).reshape(iterations, t)
            for _ in range(R)
        ]
        return np.stack(streams, axis=1)

    def _initial_sigma(self, initial, rng) -> np.ndarray:
        """Validated (R, n) ±1 start state, in the caller's original space."""
        R, n = self.replicas, self.n
        if initial is None:
            return rng.choice(np.array([-1.0, 1.0]), size=(R, n))
        base = np.asarray(initial, dtype=np.float64)
        if base.shape == (n,):
            sigma = np.tile(base, (R, 1))
        elif base.shape == (R, n):
            # C order even for an F-ordered caller array: the sparse
            # field-update scatter aliases g through reshape(-1).
            sigma = np.ascontiguousarray(base)
            sigma = sigma.copy() if sigma is base else sigma
        else:
            raise ValueError(f"initial must have shape ({n},) or ({R}, {n})")
        bad = ~np.isin(sigma, (-1.0, 1.0))
        if bad.any():
            r, j = np.argwhere(bad)[0]
            raise ValueError(
                f"initial entries must be ±1; replica {r} has "
                f"{sigma[r, j]!r} at spin {j} (a non-spin value would corrupt "
                f"the cached local fields and return wrong energies)"
            )
        return sigma

    def _draw(self, iterations: int, initial=None) -> StackedLane:
        """Every RNG draw of a run, in order, frozen into a lane.

        Schedule (SA's default probes ``estimate_temperature_range``),
        initial state, proposal tensor, then the accept uniforms —
        ``rng.random((iterations, R))`` consumes the bit stream exactly
        like ``iterations`` successive ``rng.random(R)`` calls.  The lane
        is in the model's internal ordering (permutation applied).
        """
        rng = self._rng
        schedule = self._build_schedule(iterations)
        sigma0 = self._initial_sigma(initial, rng)
        proposals = self._proposal_tensor(iterations)
        uniforms = rng.random((iterations, self.replicas))
        if self._bwd is not None:
            # The draws are in the original spin space; gather into the
            # internal ordering (C order, so the cached-field scatter
            # updates alias instead of copying).
            sigma0 = np.ascontiguousarray(sigma0[:, self._bwd])
            proposals = self._fwd[proposals]
        return StackedLane(
            model=self.model, method=self.method, iterations=iterations,
            replicas=self.replicas,
            flips_per_iteration=self.flips_per_iteration,
            sigma0=sigma0, proposals=proposals, uniforms=uniforms,
            **self._lane_terms(schedule.profile()),
        )

    def run(self, iterations: int, initial=None) -> BatchAnnealResult:
        """Advance all replicas for ``iterations`` steps.

        Parameters
        ----------
        iterations:
            Proposal/accept steps (validated like the solve API — bools and
            non-positive counts are rejected with an actionable error).
        initial:
            Optional ±1 start configuration, shape (n,) (broadcast to all
            replicas) or (R, n) (one per replica), in the caller's original
            spin space when a permutation is set.
        """
        iterations = check_count(
            "iterations", iterations,
            hint="the annealers need at least one proposal/accept step",
        )
        lane = self._draw(iterations, initial)
        return _run_lanes(self.model, [lane], fwd=self._fwd)[0]


class BatchInSituAnnealer(_InSituRule, _BatchEngine):
    """R-replica vectorised in-situ annealer (rank-``t`` moves).

    Parameters
    ----------
    model:
        The Ising model (fields supported; dense or sparse backend).
    replicas:
        Number of independent replicas ``R``.
    flips_per_iteration:
        ``t = |F|``, the constant flip-set size shared by all replicas
        (as in :class:`~repro.core.annealer.InSituAnnealer`).
    factor / schedule / encoder / acceptance_scale / proposal / seed:
        As in :class:`~repro.core.annealer.InSituAnnealer`.
    permutation:
        Optional :class:`~repro.core.reorder.Permutation` (or raw forward
        array) declaring ``model`` a relabelled view; proposals and
        configurations stay in the caller's original spin space.
    """

    method = "insitu"

    def __init__(
        self,
        model: IsingModel | SparseIsingModel,
        replicas: int,
        flips_per_iteration: int = 1,
        factor: FractionalFactor | None = None,
        schedule: Schedule | None = None,
        encoder: VbgEncoder | None = None,
        acceptance_scale: float | str = "auto",
        proposal: str = "scan",
        permutation=None,
        seed=None,
    ) -> None:
        super().__init__(
            model, replicas, flips_per_iteration, schedule, proposal,
            permutation, seed,
        )
        self._init_rule(model, factor, encoder, acceptance_scale)

    def _lane_terms(self, temperatures: np.ndarray) -> dict:
        return {
            "factors": self._factors(temperatures),
            "acceptance_scale": self.acceptance_scale,
        }


class BatchDirectEAnnealer(_MetropolisRule, _BatchEngine):
    """R-replica vectorised direct-E Metropolis SA (rank-``t`` moves).

    The baseline algorithm at batch throughput — lets the 100-run Fig 10
    protocol run for both solver families.  Parameters mirror
    :class:`~repro.core.sa.DirectEAnnealer` (plus ``replicas`` and
    ``permutation`` as in :class:`BatchInSituAnnealer`).
    """

    method = "sa"

    def _lane_terms(self, temperatures: np.ndarray) -> dict:
        return {"temperatures": np.maximum(temperatures, T_FLOOR)}


#: The batch engine serving each flip-proposal ``method=``.
_BATCH_ENGINES = {cls.method: cls for cls in (BatchInSituAnnealer, BatchDirectEAnnealer)}
