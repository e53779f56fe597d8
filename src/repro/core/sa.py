"""Direct-E simulated annealing — the algorithm of the baseline annealers.

The CiM/FPGA and CiM/ASIC baselines (paper Fig 1b, Sec. 4) run conventional
SA: each iteration recomputes the *full* energy ``E_new = σ_newᵀJσ_new`` on
the crossbar (O(n²) product terms), takes ``ΔE = E_new − E`` in digital, and
accepts uphill moves with probability ``exp(−ΔE/T)`` evaluated on dedicated
exponent hardware [18].

This software reference computes ΔE with the cheap local-field identity
(mathematically identical — the O(n²) cost is a *hardware* property that
the architecture ledgers account for) on the serial Algorithm-1 loop of
:mod:`repro.core.annealer`, supplying only the Metropolis accept step; it
counts the uphill proposals that trigger ``e^x`` evaluations and uses a
standard auto-tuned geometric cooling schedule (:class:`_MetropolisRule`,
shared with the replica-batch engine).
"""

from __future__ import annotations

import numpy as np

from repro.core.annealer import _SerialAnnealer
from repro.core.schedule import GeometricSchedule, Schedule
from repro.ising.model import IsingModel
from repro.ising.sparse import SparseIsingModel
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_permutation

#: Floor on the Metropolis temperature (``exp(-ΔE/T)`` at ``T = 0``).
T_FLOOR = 1e-12


def estimate_temperature_range(
    model: IsingModel | SparseIsingModel,
    samples: int = 200,
    p_start: float = 0.8,
    p_end: float = 0.002,
    seed=None,
    permutation=None,
) -> tuple[float, float]:
    """Standard SA temperature auto-tuning.

    Samples single-flip |ΔE| from a random configuration and picks
    ``T_start``/``T_end`` so a mean uphill move is accepted with probability
    ``p_start`` at the beginning and ``p_end`` at the end.  When ``model``
    is a relabelled view (see :class:`DirectEAnnealer`'s ``permutation``),
    the configuration and sample indices are drawn in the original spin
    space and mapped through the permutation, so the estimate — and the
    RNG stream — match the unpermuted model's exactly.
    """
    if not 0 < p_end < p_start < 1:
        raise ValueError("need 0 < p_end < p_start < 1")
    rng = ensure_rng(seed)
    sigma = model.random_configuration(rng)
    idx = rng.integers(model.num_spins, size=samples)
    if permutation is not None:
        fwd, bwd = check_permutation(permutation, model.num_spins)
        sigma = sigma[bwd]
        idx = fwd[idx]
    g = model.local_fields(sigma)
    deltas = np.array(
        [model.delta_energy_single(sigma, int(i), g) for i in idx]
    )
    positive = np.abs(deltas[deltas != 0])
    mean_up = float(positive.mean()) if positive.size else 1.0
    t_start = mean_up / np.log(1.0 / p_start)
    t_end = mean_up / np.log(1.0 / p_end)
    return max(t_start, 1e-9), max(min(t_end, t_start), T_FLOOR)


class _MetropolisRule:
    """The auto-tuned cooling of the serial and batch direct-E engines."""

    def _build_schedule(self, iterations: int) -> Schedule:
        schedule = self._given_schedule(iterations)
        if schedule is not None:
            return schedule
        t_start, t_end = estimate_temperature_range(
            self.model, seed=self._rng, permutation=self.permutation
        )
        return GeometricSchedule(iterations, t_start, t_end)


class DirectEAnnealer(_MetropolisRule, _SerialAnnealer):
    """Metropolis simulated annealing with the direct-E transformation.

    Parameters
    ----------
    model:
        The Ising model to minimise — dense
        :class:`~repro.ising.model.IsingModel` or
        :class:`~repro.ising.sparse.SparseIsingModel` backend.
    flips_per_iteration:
        Spins flipped per proposal (baselines use 1, the classic move).
    schedule:
        Cooling schedule; default is an auto-tuned geometric one.
    proposal:
        ``"random"`` (default — textbook Metropolis, as in the baseline
        annealers) or ``"scan"``.
    iteration_hook:
        Optional ``hook(iteration, delta_e, accepted, temperature)`` fired
        after each accept decision (hardware cost booking).
    permutation:
        Optional :class:`~repro.core.reorder.Permutation` declaring that
        ``model`` is a relabelled view of the caller's problem; proposals
        and the initial configuration are drawn in the original spin space
        and results are mapped back (see
        :class:`repro.core.annealer.InSituAnnealer`).
    track_best / record_trace / seed:
        As in :class:`repro.core.annealer.InSituAnnealer`.
    """

    name = "direct-E SA annealer"
    _counts_exponents = True

    def _accept_rule(self, schedule: Schedule, temperatures: np.ndarray):
        rng = self._rng
        floored = np.maximum(temperatures, T_FLOOR).tolist()

        def accept(it, sigma, flips, sig_f, cross, field_term, delta_e) -> bool:
            # Downhill moves need no draw; every uphill one costs one e^x.
            return delta_e <= 0.0 or rng.random() < np.exp(-delta_e / floored[it])

        return accept
