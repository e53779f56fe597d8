"""Block-diagonal union: geometry, packing eligibility, and bit-identity.

The contract under test is the serving layer's foundation: stacking k
independent models into one block-diagonal union, advancing all of them
with ONE batch engine run (``run_stacked``), and slicing per-job results
back out must equal k independent ``solve_ising`` calls with the
corresponding RNG streams — bit-for-bit, never approximately.  The
hypothesis harness sweeps member backends (dense/sparse/packed, mixed
within one stack), external fields on a subset of members, both packable
methods, and flip ranks t ∈ {1, 4}.

Couplings are dyadic (±1/4) throughout: that is the usual backend
transparency contract — dense members run BLAS/einsum kernels solo while
the union always runs sparse/packed scatter kernels, and the two
summation orders only coincide exactly on exactly-representable values.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    BLOCK_ALIGN,
    BatchDirectEAnnealer,
    BatchInSituAnnealer,
    compile_lane,
    run_stacked,
    solve_ising,
    stack_models,
)
from repro.core import batch as batch_module
from repro.core.packed import PackedBatchState
from repro.ising import PackedIsingModel, SparseIsingModel
from repro.utils.rng import ensure_rng

relaxed = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def make_member(
    n, seed, backend="sparse", with_fields=False, offset=0.0,
    coupling_sign=None, field_value=None,
):
    """A dyadic-coupling member model on the requested backend.

    ``coupling_sign`` forces every coupling to ``±0.25`` of one sign and
    ``field_value`` sets a uniform field (both default to random signs).
    """
    base = SparseIsingModel.random(n, degree=4.0, seed=seed)
    indptr, indices, data = base.csr_arrays()
    sign = np.sign(data) if coupling_sign is None else np.full_like(data, coupling_sign)
    data = sign * 0.25
    fields = None
    if field_value is not None:
        fields = np.full(n, float(field_value))
    elif with_fields:
        rng = ensure_rng(seed + 977)
        fields = np.sign(rng.normal(size=n)) * 0.5
    if backend == "packed":
        return PackedIsingModel(
            indptr, indices, data, fields, offset, f"packed-{n}-{seed}"
        )
    sparse = SparseIsingModel(
        indptr, indices, data, fields, offset, f"sparse-{n}-{seed}"
    )
    if backend == "dense":
        return sparse.to_dense()
    return sparse


def assert_bit_identical(solo, served, label):
    assert np.array_equal(solo.best_energies, served.best_energies), label
    assert np.array_equal(solo.best_sigmas, served.best_sigmas), label
    assert np.array_equal(solo.final_energies, served.final_energies), label
    assert np.array_equal(solo.final_sigmas, served.final_sigmas), label
    assert np.array_equal(solo.accepted, served.accepted), label
    assert solo.iterations == served.iterations, label


@relaxed
@given(
    data=st.data(),
    k=st.integers(min_value=2, max_value=4),
    method=st.sampled_from(["insitu", "sa"]),
    flips=st.sampled_from([1, 4]),
    replicas=st.sampled_from([1, 3]),
)
def test_stacked_run_bit_identical_to_solo_solves(
    data, k, method, flips, replicas
):
    members = []
    for j in range(k):
        n = data.draw(st.integers(min_value=5, max_value=12), label=f"n{j}")
        backend = data.draw(
            st.sampled_from(["dense", "sparse", "packed"]), label=f"b{j}"
        )
        with_fields = data.draw(st.booleans(), label=f"h{j}")
        members.append(
            make_member(
                n, seed=13 * j + 5, backend=backend,
                with_fields=with_fields, offset=0.5 * j,
            )
        )
    iterations = 30
    seeds = [1000 + 7 * j for j in range(k)]
    lanes = [
        compile_lane(
            m, method=method, iterations=iterations, replicas=replicas,
            flips_per_iteration=flips, seed=s,
        )
        for m, s in zip(members, seeds)
    ]
    served = run_stacked(lanes)
    for m, s, r in zip(members, seeds, served):
        solo = solve_ising(
            m, method=method, iterations=iterations, seed=s,
            replicas=replicas, flips_per_iteration=flips,
        )
        assert_bit_identical(solo, r, f"{m.name} method={method} t={flips}")


def test_stack_geometry_pads_to_block_align():
    members = [make_member(n, seed=n) for n in (5, 70, 64)]
    stack = stack_models(members)
    blocks = stack.blocks
    assert [b.start for b in blocks] == [0, BLOCK_ALIGN, 3 * BLOCK_ALIGN]
    assert [b.stop - b.start for b in blocks] == [5, 70, 64]
    assert all(b.padded_stop % BLOCK_ALIGN == 0 for b in blocks)
    assert stack.model.num_spins == blocks[-1].padded_stop
    # Couplings land inside their own block: every CSR row's neighbours
    # stay within the owning member's [start, stop) range.
    indptr, indices, _ = stack.model.csr_arrays()
    for b in blocks:
        lo, hi = indptr[b.start], indptr[b.stop]
        assert np.all(indices[lo:hi] >= b.start)
        assert np.all(indices[lo:hi] < b.stop)
    # Padding rows carry no couplings at all.
    for b in blocks:
        assert indptr[b.stop] == indptr[b.padded_stop]


def test_stack_promotes_to_packed_only_on_shared_scale():
    packed = [make_member(n, seed=n, backend="packed") for n in (9, 17)]
    assert isinstance(stack_models(packed).model, PackedIsingModel)
    # A sparse member (no packed eligibility claim) blocks promotion.
    mixed = [packed[0], make_member(11, seed=3, backend="sparse")]
    stacked = stack_models(mixed)
    assert not isinstance(stacked.model, PackedIsingModel)
    # Different dyadic magnitudes cannot share one packed union.
    other = SparseIsingModel.random(8, degree=4.0, seed=21)
    indptr, indices, dat = other.csr_arrays()
    half = PackedIsingModel(indptr, indices, np.sign(dat) * 0.5)
    assert not isinstance(
        stack_models([packed[0], half]).model, PackedIsingModel
    )


def test_stack_concatenates_fields_with_zero_padding():
    with_h = make_member(6, seed=1, with_fields=True)
    without_h = make_member(7, seed=2, with_fields=False)
    stack = stack_models([with_h, without_h])
    assert stack.model.has_fields
    h = stack.model.h
    b0, b1 = stack.blocks
    assert np.array_equal(h[b0.start:b0.stop], with_h.h)
    assert np.all(h[b0.stop:] == 0.0)
    # No member with fields -> the union carries none either.
    assert not stack_models([without_h]).model.has_fields


def test_run_stacked_rejects_mismatched_lanes():
    m = make_member(8, seed=4)
    lane_a = compile_lane(m, method="sa", iterations=10, seed=0)
    lane_b = compile_lane(m, method="sa", iterations=20, seed=0)
    with pytest.raises(ValueError, match="stacked lanes must share"):
        run_stacked([lane_a, lane_b])
    with pytest.raises(ValueError, match="at least one lane"):
        run_stacked([])


def test_compile_lane_validates_at_the_boundary():
    m = make_member(8, seed=4)
    with pytest.raises(ValueError, match="iterations"):
        compile_lane(m, iterations=0)
    with pytest.raises(ValueError, match="unknown method"):
        compile_lane(m, method="mesa")
    with pytest.raises(ValueError, match="replicas"):
        compile_lane(m, replicas=True)


def test_single_lane_stacked_run_matches_solo():
    # Degenerate stack of one: still bit-identical (the serve solo
    # fallback for warm-started jobs relies on this).
    m = make_member(10, seed=6, with_fields=True)
    lane = compile_lane(
        m, method="insitu", iterations=50, replicas=2, seed=42
    )
    solo = solve_ising(m, method="insitu", iterations=50, seed=42, replicas=2)
    assert_bit_identical(solo, run_stacked([lane])[0], "single lane")


# ---------------------------------------------------------------------------
# Lazy best-state readout vs the eager snapshots it replaced
# ---------------------------------------------------------------------------


def _copy_row_ranges(dst, src, rows, starts, stops) -> None:
    """Frozen eager block snapshot: ``dst[rows[a], starts[a]:stops[a]] = src[...]``."""
    widths = (stops - starts).astype(np.intp)
    total = int(widths.sum())
    if total == 0:
        return
    offsets = np.concatenate(([0], np.cumsum(widths)[:-1]))
    flat = np.repeat(rows * src.shape[1] + starts - offsets, widths) + np.arange(total)
    # Aliasing audited: dst is the probe's own .copy() (C-contiguous) and
    # src is a batch state tensor, C-contiguous by construction.
    dst.reshape(-1)[flat] = src.reshape(-1)[flat]  # repro-lint: disable=RPL004


class EagerBestProbe:
    """A batch state that also keeps the eager best snapshots.

    Delegates the whole state protocol to the backend's own state.  After
    every flip it re-evaluates each (replica, lane) energy from scratch
    (exact for dyadic couplings) and, on a strict improvement, applies the
    frozen eager snapshot: the improved replica's whole row for a single
    lane, the improved lane's column block for stacked lanes (word
    granular on the packed backend).
    """

    def __init__(self, inner, models, blocks) -> None:
        self._inner = inner
        self._models = models
        self._blocks = blocks
        self._packed = isinstance(inner, PackedBatchState)
        self.best = self._spins().copy()
        self.best_energies = self._energies()

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def _spins(self) -> np.ndarray:
        return self._inner._words if self._packed else self._inner._sigma

    def _energies(self) -> np.ndarray:
        sigma = self._inner.final_sigmas(None)
        return np.array([
            [m.energy(row[lo:hi]) for m, (lo, hi) in zip(self._models, self._blocks)]
            for row in sigma
        ])

    def flip(self, acc, cols, vals) -> None:
        self._inner.flip(acc, cols, vals)
        energies = self._energies()
        imp = np.nonzero(energies < self.best_energies)
        self.best_energies[imp] = energies[imp]
        spins = self._spins()
        if len(self._blocks) == 1:
            improved = np.zeros(spins.shape[0], dtype=bool)
            improved[imp[0]] = True
            self.best[improved] = spins[improved]
            return
        starts, stops = (np.array(b, dtype=np.intp)[imp[1]] for b in zip(*self._blocks))
        if self._packed:
            starts, stops = starts >> 6, (stops + 63) >> 6
        _copy_row_ranges(self.best, spins, imp[0], starts, stops)

    def eager_best_sigmas(self, fwd) -> np.ndarray:
        return self._inner._readout(self.best, fwd)


@contextmanager
def eager_probes(models, blocks):
    """Run the lane loop on :class:`EagerBestProbe` states; yields them."""
    probes = []
    real = batch_module.coupling_ops

    def probed_ops(model):
        ops = real(model)
        make_state = ops.make_batch_state

        def make_probe(sigma):
            probes.append(EagerBestProbe(make_state(sigma), models, blocks))
            return probes[-1]

        ops.make_batch_state = make_probe
        return ops

    with mock.patch.object(batch_module, "coupling_ops", probed_ops):
        yield probes


#: Member couplings, fields and start state per scenario: ``ground``
#: starts every replica in the all-+1 ground state (no run ever improves
#: on it, so every accepted flip is undone); ``descent`` starts all-+1
#: against a dominant field, so every flip improves (with one iteration
#: the last iteration improves).
SCENARIOS = {
    "random": dict(coupling_sign=None, field_value=None),
    "ground": dict(coupling_sign=-1.0, field_value=-0.5),
    "descent": dict(coupling_sign=None, field_value=16.0),
}


@relaxed
@given(
    data=st.data(),
    k=st.sampled_from([1, 2, 3]),
    method=st.sampled_from(["insitu", "sa"]),
    flips=st.sampled_from([1, 3]),
    replicas=st.sampled_from([1, 3]),
    iterations=st.sampled_from([1, 30]),
    scenario=st.sampled_from(sorted(SCENARIOS)),
)
def test_lazy_best_readout_matches_eager_snapshots(
    data, k, method, flips, replicas, iterations, scenario
):
    members = []
    for j in range(k):
        n = data.draw(st.integers(min_value=5, max_value=70), label=f"n{j}")
        backend = data.draw(
            st.sampled_from(["dense", "sparse", "packed"]), label=f"b{j}"
        )
        with_fields = data.draw(st.booleans(), label=f"h{j}")
        members.append(make_member(
            n, seed=11 * j + 3, backend=backend, with_fields=with_fields,
            offset=0.5 * j, **SCENARIOS[scenario],
        ))
    initial = None if scenario == "random" else 1.0
    if k == 1:
        model = members[0]
        n = model.num_spins
        proposal = data.draw(st.sampled_from(["scan", "random"]), label="prop")
        perm = None
        if data.draw(st.booleans(), label="permuted"):
            perm = ensure_rng(n).permutation(n)
        engine_cls = BatchInSituAnnealer if method == "insitu" else BatchDirectEAnnealer
        engine = engine_cls(
            model, replicas=replicas, flips_per_iteration=flips,
            proposal=proposal, permutation=perm, seed=17,
        )
        with eager_probes(members, [(0, n)]) as probes:
            results = [engine.run(
                iterations, None if initial is None else np.full(n, initial)
            )]
        fwd = engine._fwd
    else:
        lanes = [
            compile_lane(
                m, method=method, iterations=iterations, replicas=replicas,
                flips_per_iteration=flips, seed=100 + j,
                initial=None if initial is None else np.full(m.num_spins, initial),
            )
            for j, m in enumerate(members)
        ]
        blocks = [(b.start, b.stop) for b in stack_models(members).blocks]
        with eager_probes(members, blocks) as probes:
            results = run_stacked(lanes)
        fwd = None
    (probe,) = probes
    eager = probe.eager_best_sigmas(fwd)
    for j, (res, (lo, hi)) in enumerate(
        zip(results, [(0, members[0].num_spins)] if k == 1 else blocks)
    ):
        label = f"lane {j} {scenario} k={k} {method} t={flips}"
        assert np.array_equal(res.best_energies, probe.best_energies[:, j]), label
        assert np.array_equal(res.best_sigmas, eager[:, lo:hi]), label
        if scenario == "ground":
            assert np.all(res.best_sigmas == 1), label
        if scenario == "descent" and iterations == 1:
            assert np.all(res.accepted == 1), label
            assert np.array_equal(res.best_sigmas, res.final_sigmas), label
