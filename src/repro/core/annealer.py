"""The in-situ annealing flow — Algorithm 1 of the paper.

Each iteration: select ``t = |F|`` spins, form ``σ_new``/``σ_r``/``σ_c``,
evaluate ``E_inc = σ_rᵀJσ_c · f(T)`` (in hardware: one crossbar activation),
then accept when ``E_inc ≤ 0`` or when ``E_inc ≤ rand(0, 1)``; finally step
the temperature along the back-gate schedule.

This module holds the *serial* Algorithm-1 loop, written once:
:class:`_SerialAnnealer` runs one trajectory with O(t) local-field
arithmetic per proposal and draws its randomness lazily (a flip set per
iteration, a uniform only when the accept rule needs one).  It carries
the hardware hooks (``evaluator``, ``iteration_hook``), trace recording
and the layout permutation.  :class:`InSituAnnealer` supplies only the
fractional-factor accept step; the direct-E SA baseline
(:class:`~repro.core.sa.DirectEAnnealer`) supplies the Metropolis one on
the same loop.  The replica-batch shape of Algorithm 1 — ``(R, k)``
replica × lane tensors advanced array-wide — is the lane loop of
:mod:`repro.core.batch`.

The hardware-in-the-loop variant (:mod:`repro.arch.cim_annealer`) plugs a
crossbar in through the ``evaluator`` hook and inherits the identical
proposal/acceptance logic, so software and hardware trajectories coincide
for ideal arrays.

Reproduction notes (DESIGN.md §2):

* the run tracks the best configuration seen — the controller keeps the
  running energy up to date at O(1)/iteration anyway (``E ← E + ΔE``);
* ``acceptance_scale`` is the sensed-value gain of the read-out chain (the
  comparison against ``rand(0,1)`` happens in normalised hardware units, so
  the current-to-digital scaling is a free design parameter; ``"auto"``
  picks a gain that makes the smallest coupling step significant).
"""

from __future__ import annotations

import numpy as np

from repro.core.coupling import auto_acceptance_scale, coupling_ops
from repro.core.factors import FractionalFactor, VbgEncoder
from repro.core.proposal import PROPOSAL_MODES, FlipSelector
from repro.core.results import AnnealResult
from repro.core.schedule import Schedule, VbgStepSchedule
from repro.ising.model import IsingModel
from repro.ising.sparse import SparseIsingModel
from repro.utils.rng import ensure_rng
from repro.utils.validation import (
    check_choice,
    check_count,
    check_permutation,
    check_real,
    check_spin_vector,
)


class _Engine:
    """Constructor checks and schedule lookup shared by every flip engine."""

    def _init_engine(
        self, model, flips_per_iteration, schedule, proposal, permutation, seed
    ) -> None:
        self.model = model
        self.n = model.num_spins
        t = check_count("flips_per_iteration", flips_per_iteration)
        if t > self.n:
            raise ValueError(
                f"flips_per_iteration must be in [1, {self.n}], got {t}"
            )
        self.flips_per_iteration = t
        self.schedule = schedule
        self.proposal = check_choice("proposal", proposal, PROPOSAL_MODES)
        self.permutation = permutation
        if permutation is None:
            self._fwd = self._bwd = None
        else:
            self._fwd, self._bwd = check_permutation(permutation, self.n)
        self._rng = ensure_rng(seed)

    def _given_schedule(self, iterations: int) -> Schedule | None:
        """The caller's schedule checked against the run length, if set."""
        if self.schedule is not None and self.schedule.iterations != iterations:
            raise ValueError(
                f"schedule length {self.schedule.iterations} does not match "
                f"iterations={iterations}"
            )
        return self.schedule


class _InSituRule:
    """The fractional-factor terms of the serial and batch in-situ engines."""

    def _init_rule(self, model, factor, encoder, acceptance_scale) -> None:
        self.factor = factor or FractionalFactor()
        self.encoder = encoder
        if isinstance(acceptance_scale, str) and acceptance_scale == "auto":
            acceptance_scale = auto_acceptance_scale(model)
        self.acceptance_scale = check_real("acceptance_scale", acceptance_scale)
        if self.acceptance_scale <= 0:
            raise ValueError(
                f"acceptance_scale must be 'auto' or positive, got {acceptance_scale!r}"
            )

    def _build_schedule(self, iterations: int) -> Schedule:
        schedule = self._given_schedule(iterations)
        if schedule is None:
            return VbgStepSchedule(iterations, factor=self.factor)
        return schedule

    def _factor_at(self, temperature: float) -> float:
        return float(self._factors(np.array([temperature]))[0])

    def _factors(self, temperatures: np.ndarray) -> np.ndarray:
        """``f`` at every temperature of a run (``factor.value`` is elementwise)."""
        if self.encoder is not None:
            return np.array([self.encoder.realized_factor(x) for x in temperatures])
        return np.asarray(self.factor.value(temperatures), dtype=np.float64)


class _SerialAnnealer(_Engine):
    """The serial Algorithm-1 loop: one trajectory, lazily drawn.

    Subclasses provide ``_build_schedule(iterations)`` and
    ``_accept_rule(schedule, temperatures)``, which returns the run's
    accept step ``accept(it, sigma, flips, sig_f, cross, field_term,
    delta_e) -> bool``; the step draws its own uniform from ``self._rng``
    only when it needs one.  ``_metadata_keys`` names the attributes
    reported in the result's metadata.  The constructor's defaults are
    the direct-E baseline's (textbook Metropolis ``"random"`` proposals).
    """

    name = ""
    _metadata_keys: tuple[str, ...] = ("flips_per_iteration", "proposal")
    #: Whether every uphill proposal evaluates ``e^x`` (the SA hardware).
    _counts_exponents = False

    def __init__(
        self,
        model: IsingModel | SparseIsingModel,
        flips_per_iteration: int = 1,
        schedule: Schedule | None = None,
        proposal: str = "random",
        iteration_hook=None,
        permutation=None,
        track_best: bool = True,
        record_trace: bool = False,
        seed=None,
    ) -> None:
        self._init_engine(
            model, flips_per_iteration, schedule, proposal, permutation, seed
        )
        self._ops = coupling_ops(model)
        self.iteration_hook = iteration_hook
        self.track_best = bool(track_best)
        self.record_trace = bool(record_trace)

    def run(self, iterations: int, initial=None) -> AnnealResult:
        """Execute the annealing flow and return the result.

        Parameters
        ----------
        iterations:
            Number of proposal/accept iterations (the paper's per-size
            budgets live in ``repro.ising.PAPER_ITERATIONS``).
        initial:
            Optional starting ±1 configuration (default: uniform random).
        """
        iterations = check_count(
            "iterations", iterations,
            hint="the annealers need at least one proposal/accept step",
        )
        schedule = self._build_schedule(iterations)
        temperatures = schedule.profile()
        accept = self._accept_rule(schedule, temperatures)
        temperatures = temperatures.tolist()
        rng = self._rng
        ops = self._ops
        h = self.model.h
        has_fields = self.model.has_fields

        if initial is None:
            sigma = self.model.random_configuration(rng).astype(np.float64)
        else:
            sigma = check_spin_vector(initial, self.n).astype(np.float64)
        if self._bwd is not None:
            # Both the random draw and a caller-supplied `initial` are in
            # the original spin space; gather into the internal ordering.
            sigma = sigma[self._bwd]
        g = ops.batch_local_fields(sigma[None])[0]
        energy = float(sigma @ g + h @ sigma) + self.model.offset
        best_energy = energy
        best_sigma = sigma.copy()

        accepted = 0
        uphill_accepted = 0
        uphill_proposals = 0
        trace = np.empty(iterations, dtype=np.float64) if self.record_trace else None
        best_trace = np.empty(iterations, dtype=np.float64) if self.record_trace else None
        hook = self.iteration_hook
        selector = FlipSelector(
            self.n, self.flips_per_iteration, self.proposal, rng,
            index_map=self._fwd,
        )

        for it in range(iterations):
            flips = selector.next()
            # σ_rᵀ J σ_c through the cached local fields: for each flipped
            # column j, subtract the contribution of other flipped rows.
            sig_f = sigma[flips]
            cross = ops.cross_term(g, flips, sig_f)
            field_term = float(-(h[flips] * sig_f).sum()) if has_fields else 0.0
            delta_e = 4.0 * cross + 2.0 * field_term
            if delta_e > 0:
                uphill_proposals += 1
            ok = accept(it, sigma, flips, sig_f, cross, field_term, delta_e)
            if ok:
                accepted += 1
                if delta_e > 0:
                    uphill_accepted += 1
                # Rank-t update of state, fields and running energy.
                ops.update_fields(g, flips, sig_f)
                sigma[flips] = -sig_f
                energy += delta_e
                if self.track_best and energy < best_energy:
                    best_energy = energy
                    best_sigma = sigma.copy()
            if hook is not None:
                hook(it, delta_e, ok, temperatures[it])
            if trace is not None:
                trace[it] = energy
                best_trace[it] = best_energy

        if not self.track_best or energy < best_energy:
            best_energy = energy
            best_sigma = sigma.copy()
        if self._fwd is not None:
            # Hand configurations back in the caller's original ordering.
            sigma = sigma[self._fwd]
            best_sigma = best_sigma[self._fwd]
        return AnnealResult(
            solver=self.name,
            sigma=sigma.astype(np.int8),
            energy=energy,
            best_sigma=best_sigma.astype(np.int8),
            best_energy=best_energy,
            iterations=iterations,
            accepted=accepted,
            uphill_accepted=uphill_accepted,
            uphill_proposals=uphill_proposals,
            exponent_evaluations=uphill_proposals if self._counts_exponents else 0,
            energy_trace=trace,
            best_trace=best_trace,
            metadata={key: getattr(self, key) for key in self._metadata_keys},
        )


class InSituAnnealer(_InSituRule, _SerialAnnealer):
    """Algorithm 1: tunable back-gate in-situ annealing.

    Parameters
    ----------
    model:
        The Ising model to minimise (fields are folded in exactly through
        the ``2hᵀσ_c`` term).  Either backend works — a dense
        :class:`~repro.ising.model.IsingModel` or a
        :class:`~repro.ising.sparse.SparseIsingModel`; trajectories
        coincide across backends for a fixed seed.
    flips_per_iteration:
        ``t = |F|``, the constant flip-set size (paper keeps it constant so
        the VMV stays O(n)).
    factor:
        The fractional annealing factor; default is the published one.
    schedule:
        Back-gate schedule; default walks 0.7 V → 0 V evenly over the run.
    encoder:
        Optional :class:`VbgEncoder` realising ``f`` through a device
        transfer curve (adds the 10 mV quantisation of the real rail).
    acceptance_scale:
        Read-out gain applied to ``E_inc`` before the ``rand`` comparison:
        a positive finite number, or ``"auto"``.
    evaluator:
        Optional hardware hook ``evaluator(sigma, flips, sigma_r, sigma_c,
        v_bg) -> sensed value`` replacing the exact ``σ_rᵀJσ_c · f``
        computation (used by the CiM machine).
    proposal:
        ``"scan"`` (default) walks a per-sweep random permutation — the
        hardware-natural sequential address counter, which guarantees every
        spin is visited once per sweep; ``"random"`` draws flip sets
        independently each iteration (classic Metropolis).  The proposal
        ablation bench quantifies the difference.
    iteration_hook:
        Optional callable ``hook(iteration, delta_e, accepted, temperature)``
        fired after each accept decision; the hardware machines use it to
        book per-iteration costs.
    permutation:
        Optional :class:`~repro.core.reorder.Permutation` (or raw
        ``forward`` array) declaring that ``model`` is a relabelled view of
        the caller's problem.  Proposal indices and the initial
        configuration are drawn in the caller's *original* spin space and
        mapped through the permutation, and the returned configurations are
        mapped back — so the RNG stream, accept decisions and results are
        layout-independent (bit-identical to the unpermuted solve for
        dyadic couplings, where all sums are exact in any order).
    track_best / record_trace:
        Bookkeeping switches.
    seed:
        RNG seed (flip selection and acceptance draws).
    """

    name = "in-situ CiM annealer"
    _metadata_keys = (
        "flips_per_iteration", "acceptance_scale", "factor", "proposal",
    )

    def __init__(
        self,
        model: IsingModel | SparseIsingModel,
        flips_per_iteration: int = 1,
        factor: FractionalFactor | None = None,
        schedule: Schedule | None = None,
        encoder: VbgEncoder | None = None,
        acceptance_scale: float | str = "auto",
        evaluator=None,
        proposal: str = "scan",
        iteration_hook=None,
        permutation=None,
        track_best: bool = True,
        record_trace: bool = False,
        seed=None,
    ) -> None:
        super().__init__(
            model, flips_per_iteration, schedule, proposal, iteration_hook,
            permutation, track_best, record_trace, seed,
        )
        self._init_rule(model, factor, encoder, acceptance_scale)
        self.evaluator = evaluator

    def _rail_levels(self, schedule: Schedule, temperatures: np.ndarray) -> list:
        """The V_BG handed to the ``evaluator`` at every iteration.

        The BG encoder picks the rail level realising f(T) on the physical
        transfer curve (paper Fig 3c); without one, fall back to the
        schedule's raw V_BG walk / the factor's linear map.
        """
        if self.encoder is not None:
            return [self.encoder.encode(x) for x in temperatures]
        vbg = getattr(schedule, "vbg", None)
        if vbg is not None:
            return [float(vbg(it)) for it in range(len(temperatures))]
        return [float(self.factor.vbg_for_temperature(x)) for x in temperatures]

    def _accept_rule(self, schedule: Schedule, temperatures: np.ndarray):
        rng = self._rng
        scale = self.acceptance_scale
        factors = self._factors(temperatures).tolist()
        evaluator = self.evaluator
        levels = None if evaluator is None else self._rail_levels(schedule, temperatures)
        n = self.n

        def accept(it, sigma, flips, sig_f, cross, field_term, delta_e) -> bool:
            f_value = factors[it]
            if evaluator is None:
                e_inc = (cross + field_term / 2.0) * f_value * scale
            else:
                # σ_r/σ_c built in place (no validation — sigma is ±1 by
                # construction); equivalent to `incremental_vectors`.
                sigma_c = np.zeros(n, dtype=np.float64)
                sigma_c[flips] = -sig_f
                sigma_r = sigma.copy()
                sigma_r[flips] = 0.0
                sensed = evaluator(sigma, flips, sigma_r, sigma_c, levels[it])
                # Field contribution scaled like the sensed part (a field is
                # physically an ancilla row passing through the same array).
                e_inc = (sensed + field_term / 2.0 * f_value) * scale
            return e_inc <= 0.0 or e_inc <= rng.random()

        return accept
