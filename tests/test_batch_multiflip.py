"""Rank-t replica batch engine: bit-identity against a straight-line loop.

The batch engines advance R replicas with array-wide rank-``t`` moves
(``batch_cross_term`` / rank-t ``batch_update_fields``).  The pin here is
the strongest available: for dyadic couplings — where every floating-point
sum is exact in any order — a batch run must be **bit-identical, replica by
replica**, to a straight-line reference loop that replays the same RNG
stream one replica at a time, taking each ``ΔE`` from the model's own
``delta_energy_flips`` rather than from any coupling kernel.  That ties
the vectorised rank-t kernels to the rank-t mathematics on both coupling
backends.

Also covered: acceptance-rule parity between the batch and sequential
engines at comparison boundaries (the satellite audit), rank-t validation,
and permutation transparency of the replica path.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    BatchDirectEAnnealer,
    BatchInSituAnnealer,
    FractionalFactor,
    VbgEncoder,
    coupling_ops,
    solve_ising,
)
from repro.core.batch import _accept_insitu, _accept_metropolis
from repro.core.reorder import reorder_permutation
from repro.ising import IsingModel, MaxCutProblem, SparseIsingModel
from repro.utils.rng import ensure_rng

relaxed = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ENGINES = (BatchInSituAnnealer, BatchDirectEAnnealer)


def dyadic_pair(seed: int, n: int = 18, with_fields: bool = True):
    """A (dense, sparse) model pair with exactly-representable couplings."""
    rng = ensure_rng(seed)
    values = rng.integers(-8, 9, size=(n, n)) / 8.0
    mask = rng.random((n, n)) < 0.35
    upper = np.triu(values * mask, k=1)
    J = upper + upper.T
    h = rng.integers(-8, 9, size=n) / 8.0 if with_fields else None
    dense = IsingModel(J, h, offset=0.125, name=f"dyadic-{n}")
    return dense, SparseIsingModel.from_ising(dense)


def reference_batch_run(engine, iterations: int):
    """Straight-line per-replica replay of ``engine``'s batch run.

    Consumes the engine's RNG in exactly the order :meth:`_BatchEngine.run`
    does (schedule → initial state → proposal tensor → per-iteration
    uniforms), then advances each replica independently with the model's
    ``delta_energy_flips`` and the *sequential* acceptance rules.
    Returns ``(best_energies, best_sigmas, final_energies, final_sigmas,
    accepted)`` in the caller's original spin ordering.
    """
    rng = engine._rng
    R, n = engine.replicas, engine.n
    schedule = engine._build_schedule(iterations)
    sigma0 = engine._initial_sigma(None, rng)
    if engine._bwd is not None:
        sigma0 = np.ascontiguousarray(sigma0[:, engine._bwd])
    proposals = engine._proposal_tensor(iterations)
    if engine._fwd is not None:
        proposals = engine._fwd[proposals]
    uniforms = np.stack([rng.random(R) for _ in range(iterations)])

    model = engine.model
    h = model.h
    has_fields = model.has_fields
    insitu = isinstance(engine, BatchInSituAnnealer)

    best_energies = np.empty(R)
    final_energies = np.empty(R)
    best_sigmas = np.empty((R, n))
    final_sigmas = np.empty((R, n))
    accepted = np.zeros(R, dtype=np.int64)
    for r in range(R):
        sig = sigma0[r].copy()
        energy = model.energy(sig)
        best_energy, best_sig = energy, sig.copy()
        for it in range(iterations):
            temperature = schedule.temperature(it)
            flips = proposals[it, r].astype(np.intp)
            sig_f = sig[flips]
            delta_e = model.delta_energy_flips(sig, flips)
            field_term = (
                float(-(h[flips] * sig_f).sum()) if has_fields else 0.0
            )
            cross = (delta_e - 2.0 * field_term) / 4.0
            u = uniforms[it, r]
            if insitu:
                # the sequential InSituAnnealer rule, verbatim
                f_value = engine._factor_at(temperature)
                e_inc = (
                    (cross + field_term / 2.0)
                    * f_value
                    * engine.acceptance_scale
                )
                accept = e_inc <= 0.0 or e_inc <= u
            else:
                # the sequential DirectEAnnealer rule, verbatim
                if delta_e <= 0.0:
                    accept = True
                else:
                    accept = u < np.exp(
                        -delta_e / max(float(temperature), 1e-12)
                    )
            if accept:
                accepted[r] += 1
                sig[flips] = -sig_f
                energy += delta_e
                if energy < best_energy:
                    best_energy, best_sig = energy, sig.copy()
        best_energies[r], final_energies[r] = best_energy, energy
        best_sigmas[r], final_sigmas[r] = best_sig, sig
    if engine._fwd is not None:
        best_sigmas = best_sigmas[:, engine._fwd]
        final_sigmas = final_sigmas[:, engine._fwd]
    return best_energies, best_sigmas, final_energies, final_sigmas, accepted


class TestBitIdentityAgainstReferenceLoop:
    @relaxed
    @given(
        seed=st.integers(0, 10_000),
        t=st.integers(1, 6),
        engine_cls=st.sampled_from(ENGINES),
        proposal=st.sampled_from(["scan", "random"]),
        backend=st.sampled_from(["dense", "sparse"]),
    )
    def test_batch_matches_per_replica_reference(
        self, seed, t, engine_cls, proposal, backend
    ):
        dense, sparse = dyadic_pair(seed)
        model = dense if backend == "dense" else sparse
        kwargs = dict(
            replicas=4, flips_per_iteration=t, proposal=proposal, seed=seed
        )
        result = engine_cls(model, **kwargs).run(120)
        ref = reference_batch_run(engine_cls(model, **kwargs), 120)
        best_e, best_s, final_e, final_s, accepted = ref
        assert np.array_equal(result.best_energies, best_e)
        assert np.array_equal(result.final_energies, final_e)
        assert np.array_equal(result.best_sigmas, best_s.astype(np.int8))
        assert np.array_equal(result.final_sigmas, final_s.astype(np.int8))
        assert np.array_equal(result.accepted, accepted)

    @relaxed
    @given(
        seed=st.integers(0, 10_000),
        t=st.integers(1, 4),
        proposal=st.sampled_from(["scan", "random"]),
        backend=st.sampled_from(["dense", "sparse"]),
    )
    def test_batch_encoder_matches_per_replica_reference(
        self, seed, t, proposal, backend
    ):
        """The ``encoder=`` knob: realised grid factors, not analytic f(T)."""
        dense, sparse = dyadic_pair(seed)
        model = dense if backend == "dense" else sparse
        encoder = VbgEncoder(
            FractionalFactor(), transfer=lambda v: (v / 0.7) ** 1.5
        )
        kwargs = dict(
            replicas=4, flips_per_iteration=t, proposal=proposal,
            encoder=encoder, seed=seed,
        )
        result = BatchInSituAnnealer(model, **kwargs).run(120)
        ref = reference_batch_run(BatchInSituAnnealer(model, **kwargs), 120)
        best_e, best_s, final_e, final_s, accepted = ref
        assert np.array_equal(result.best_energies, best_e)
        assert np.array_equal(result.final_energies, final_e)
        assert np.array_equal(result.best_sigmas, best_s.astype(np.int8))
        assert np.array_equal(result.final_sigmas, final_s.astype(np.int8))
        assert np.array_equal(result.accepted, accepted)

    @relaxed
    @given(seed=st.integers(0, 10_000), t=st.integers(1, 5))
    def test_permuted_batch_matches_reference_and_identity(self, seed, t):
        """Reordered replica solves replay the identical trajectory."""
        problem = MaxCutProblem.random(40, 120, weighted=True, seed=seed)
        model = problem.to_ising(backend="sparse")
        perm = reorder_permutation(model, "rcm")
        if perm is None:
            return
        for engine_cls in ENGINES:
            kwargs = dict(replicas=3, flips_per_iteration=t, seed=seed)
            plain = engine_cls(model, **kwargs).run(100)
            permuted = engine_cls(
                model.permuted(perm), permutation=perm, **kwargs
            ).run(100)
            assert np.array_equal(plain.best_energies, permuted.best_energies)
            assert np.array_equal(plain.final_sigmas, permuted.final_sigmas)
            assert np.array_equal(plain.best_sigmas, permuted.best_sigmas)
            assert np.array_equal(plain.accepted, permuted.accepted)
            ref = reference_batch_run(
                engine_cls(model.permuted(perm), permutation=perm, **kwargs),
                100,
            )
            assert np.array_equal(permuted.best_energies, ref[0])
            assert np.array_equal(permuted.final_sigmas, ref[3].astype(np.int8))


class TestCrossTermLaneAxis:
    @relaxed
    @given(
        seed=st.integers(0, 10_000),
        t=st.integers(1, 5),
        k=st.integers(1, 3),
        backend=st.sampled_from(["dense", "sparse"]),
    )
    def test_lane_axis_sums_each_flip_set(self, seed, t, k, backend):
        """``(R, k, t)`` flip sets give ``(R, k)``: one cross term per set.

        The sets of a replica may overlap and the model is not block
        diagonal, so each set must see only its own flips.
        """
        dense, sparse = dyadic_pair(seed)
        model = dense if backend == "dense" else sparse
        ops = coupling_ops(model)
        rng = ensure_rng(seed)
        R, n = 3, dense.num_spins
        sigma = rng.choice(np.array([-1.0, 1.0]), size=(R, n))
        g = ops.batch_local_fields(sigma)
        idx = np.array([
            [rng.choice(n, size=t, replace=False) for _ in range(k)]
            for _ in range(R)
        ])
        sig_f = sigma[np.arange(R)[:, None, None], idx]
        got = ops.batch_cross_term(g, idx, sig_f)
        assert got.shape == (R, k)
        for j in range(k):
            flat = ops.batch_cross_term(g, idx[:, j], sig_f[:, j])
            assert flat.shape == (R,)
            assert np.array_equal(got[:, j], flat)
            for r in range(R):
                sigma_c = np.zeros(n)
                sigma_c[idx[r, j]] = -sig_f[r, j]
                delta_e = model.delta_energy_flips(sigma[r], idx[r, j])
                assert got[r, j] == (delta_e - 2.0 * (model.h @ sigma_c)) / 4.0


class TestAcceptanceParity:
    """The lane loop's accept rules == sequential rules at boundaries.

    Each rule has one batch definition (``_accept_insitu`` /
    ``_accept_metropolis``, shared by replica solves and stacked serve
    runs).  The oracles below are the sequential engines' accept expressions
    verbatim (InSituAnnealer: ``e_inc <= 0 or e_inc <= u``;
    DirectEAnnealer: ``delta_e <= 0 or u < exp(-delta_e/T)``).  A drift in
    either comparison operator or in the factor/scale association flips
    one of the exact-boundary cases.
    """

    def test_insitu_boundaries(self, small_model):
        engine = BatchInSituAnnealer(
            small_model, replicas=1, acceptance_scale=1.5, seed=0
        )
        temperature = 0.35
        f_value = engine._factor_at(temperature)
        scale = engine.acceptance_scale
        cross = np.array([-1.0, 0.0, 0.25, 0.25, 0.25, 2.0])
        field = np.zeros(6)
        e_inc = cross * f_value * scale
        # u exactly at, just below, and far from the threshold
        u = np.array([0.0, 0.0, e_inc[2], np.nextafter(e_inc[3], -1.0), 1.0, 0.0])
        got = _accept_insitu(cross, field, f_value, scale, u)
        expected = [
            bool(e <= 0.0 or e <= uu) for e, uu in zip(e_inc, u)
        ]
        assert got.tolist() == expected
        # the boundary rows are the interesting ones: pinned explicitly
        assert got[1]          # e_inc == 0 accepted without consuming luck
        assert got[2]          # e_inc == u accepted (<= comparison)
        assert not got[3]      # u one ulp below e_inc rejected

    def test_insitu_association_matches_sequential(self, small_model):
        """(x·f)·scale, not x·(f·scale) — last-ulp parity with sequential."""
        engine = BatchInSituAnnealer(
            small_model, replicas=1, acceptance_scale="auto", seed=0
        )
        temperature = 0.61
        f_value = engine._factor_at(temperature)
        scale = engine.acceptance_scale
        rng = ensure_rng(7)
        cross = rng.integers(-64, 65, size=512) / 64.0
        field = rng.integers(-64, 65, size=512) / 64.0
        e_inc_seq = (cross + field / 2.0) * f_value * scale
        u = np.abs(e_inc_seq)  # exact threshold for every row
        got = _accept_insitu(cross, field, f_value, scale, u)
        expected = (e_inc_seq <= 0.0) | (e_inc_seq <= u)
        assert np.array_equal(got, expected)

    def test_direct_e_boundaries(self):
        temperature = 0.8
        delta_e = np.array([-2.0, 0.0, 1.0, 1.0, 1.0])
        threshold = float(np.exp(-1.0 / temperature))
        u = np.array([1.0 - 1e-12, 1.0 - 1e-12, threshold,
                      np.nextafter(threshold, 0.0), 0.0])
        got = _accept_metropolis(delta_e, temperature, u)
        expected = [
            bool(d <= 0.0 or uu < np.exp(-d / max(temperature, 1e-12)))
            for d, uu in zip(delta_e, u)
        ]
        assert got.tolist() == expected
        assert got[1]          # ΔE == 0 accepted downhill-style
        assert not got[2]      # u == exp(-ΔE/T) rejected (strict <)
        assert got[3]          # one ulp below accepted


class TestRankTValidation:
    def test_flips_bounds_and_bool(self, small_model):
        for engine_cls in ENGINES:
            with pytest.raises(ValueError, match="flips_per_iteration must be an integer"):
                engine_cls(small_model, replicas=2, flips_per_iteration=True)
            with pytest.raises(ValueError, match="flips_per_iteration must be >= 1"):
                engine_cls(small_model, replicas=2, flips_per_iteration=0)
            with pytest.raises(ValueError, match=r"must be in \[1, 12\]"):
                engine_cls(small_model, replicas=2, flips_per_iteration=13)

    def test_boolean_iterations_rejected(self, small_model):
        """run(iterations=True) used to silently run a single iteration."""
        for engine_cls in ENGINES:
            engine = engine_cls(small_model, replicas=2, seed=0)
            for bad in (True, False):
                with pytest.raises(ValueError, match="iterations must be an integer"):
                    engine.run(bad)
        with pytest.raises(ValueError, match="iterations must be >= 1"):
            BatchInSituAnnealer(small_model, replicas=2, seed=0).run(0)

    def test_initial_must_be_spin_valued(self, small_model):
        """±2 entries used to corrupt the cached fields silently."""
        n = small_model.num_spins
        engine = BatchInSituAnnealer(small_model, replicas=3, seed=0)
        bad_flat = np.ones(n)
        bad_flat[4] = 2.0
        with pytest.raises(ValueError, match=r"must be ±1.*spin 4"):
            engine.run(10, initial=bad_flat)
        bad_batch = np.ones((3, n))
        bad_batch[1, 7] = 0.0
        with pytest.raises(ValueError, match=r"replica 1.*spin 7"):
            engine.run(10, initial=bad_batch)

    def test_valid_initial_still_accepted(self, small_model):
        n = small_model.num_spins
        engine = BatchInSituAnnealer(small_model, replicas=2, seed=0)
        init = np.ones((2, n))
        init[1] *= -1
        result = engine.run(5, initial=init)
        assert result.num_replicas == 2

    def test_fortran_ordered_initial_is_handled(self, small_model):
        """An F-ordered (R, n) initial must not break the sparse scatter."""
        sparse = SparseIsingModel.from_ising(small_model)
        n = small_model.num_spins
        init = np.asfortranarray(np.ones((4, n)))
        a = BatchInSituAnnealer(sparse, replicas=4, flips_per_iteration=2,
                                seed=3).run(60, initial=init)
        b = BatchInSituAnnealer(sparse, replicas=4, flips_per_iteration=2,
                                seed=3).run(60, initial=np.ones((4, n)))
        assert np.array_equal(a.final_sigmas, b.final_sigmas)
        assert np.array_equal(a.final_energies, b.final_energies)


class TestReplicaSolveAPI:
    def test_solve_ising_replica_path(self, small_model):
        result = solve_ising(
            small_model, replicas=6, iterations=80, seed=1,
            flips_per_iteration=3,
        )
        assert result.num_replicas == 6
        assert result.best_energy == result.best_energies.min()
        assert np.array_equal(
            result.best_sigma, result.best_sigmas[result.best_replica]
        )

    def test_replicas_reject_mesa_and_tiles(self, small_model):
        with pytest.raises(ValueError, match="no batch engine"):
            solve_ising(small_model, method="mesa", replicas=4)
        with pytest.raises(ValueError, match="tile_size"):
            solve_ising(small_model, replicas=4, tile_size=8)

    def test_replica_reorder_matches_identity(self):
        problem = MaxCutProblem.random(50, 140, weighted=True, seed=2)
        model = problem.to_ising(backend="sparse")
        plain = solve_ising(
            model, method="sa", replicas=5, iterations=150, seed=4,
            flips_per_iteration=2,
        )
        reordered = solve_ising(
            model, method="sa", replicas=5, iterations=150, seed=4,
            flips_per_iteration=2, reorder="rcm",
        )
        assert np.array_equal(plain.best_energies, reordered.best_energies)
        assert np.array_equal(plain.final_sigmas, reordered.final_sigmas)
