"""Coupling adapters against the model's own energy arithmetic.

Every backend adapter (dense, sparse CSR, bit-packed) computes the
incremental-E core ``σ_rᵀ J σ_c`` from cached local fields, plus the
field cache itself.  The oracles here never route through an adapter:
the cross term is read off :meth:`delta_energy_flips` of the model
(``ΔE = 4 σ_rᵀJσ_c + 2 hᵀσ_c``) and the fields off the model's own
``local_fields``.  Models are dyadic, so every sum is exact in any order
and the comparisons are bit-for-bit.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import coupling_ops
from repro.ising import IsingModel, PackedIsingModel, SparseIsingModel
from repro.utils.rng import ensure_rng

relaxed = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def dyadic_model(seed: int, backend: str, with_fields: bool, with_diag: bool):
    """A seeded dyadic model on ``backend``.

    Packed models take one shared magnitude ``±1/4`` and no diagonal (the
    packed eligibility rules); the float backends draw ``k/8`` couplings.
    """
    rng = ensure_rng(seed)
    n = int(rng.integers(6, 30))
    mask = rng.random((n, n)) < 0.4
    if backend == "packed":
        values = rng.choice(np.array([-0.25, 0.25]), size=(n, n))
    else:
        values = rng.integers(-8, 9, size=(n, n)) / 8.0
    upper = np.triu(values * mask, k=1)
    J = upper + upper.T
    if with_diag and backend != "packed":
        J[np.diag_indices(n)] = rng.integers(-8, 9, size=n) / 8.0
    h = rng.integers(-8, 9, size=n) / 8.0 if with_fields else None
    dense = IsingModel(J, h, offset=0.5, name=f"dyadic-{n}")
    if backend == "dense":
        return dense
    sparse = SparseIsingModel.from_ising(dense)
    return sparse if backend == "sparse" else PackedIsingModel.from_sparse(sparse)


model_cases = dict(
    seed=st.integers(0, 10_000),
    backend=st.sampled_from(["dense", "sparse", "packed"]),
    with_fields=st.booleans(),
    with_diag=st.booleans(),
)


@relaxed
@given(t=st.sampled_from([1, 2, 3, 5]), **model_cases)
def test_cross_term_matches_model_delta_energy(
    seed, backend, with_fields, with_diag, t
):
    """Serial and batch cross terms both equal ``(ΔE − 2hᵀσ_c)/4``."""
    model = dyadic_model(seed, backend, with_fields, with_diag)
    ops = coupling_ops(model)
    assert ops.kind == backend
    rng = ensure_rng(seed + 1)
    R, n = 4, model.num_spins
    sigma = rng.choice(np.array([-1.0, 1.0]), size=(R, n))
    g = ops.batch_local_fields(sigma)
    idx = np.array([rng.choice(n, size=t, replace=False) for _ in range(R)])
    sig_f = sigma[np.arange(R)[:, None], idx]
    batch = ops.batch_cross_term(g, idx, sig_f)
    assert batch.shape == (R,)
    for r in range(R):
        sigma_c = np.zeros(n)
        sigma_c[idx[r]] = -sig_f[r]
        expect = (
            model.delta_energy_flips(sigma[r], idx[r]) - 2.0 * (model.h @ sigma_c)
        ) / 4.0
        serial = ops.cross_term(g[r].copy(), idx[r], sig_f[r].copy())
        assert isinstance(serial, float)
        assert serial == expect
        assert batch[r] == serial


@relaxed
@given(**model_cases)
def test_batch_local_fields_rows_match_model(seed, backend, with_fields, with_diag):
    """Field rows equal ``model.local_fields`` and come back C-ordered.

    The field-update scatter aliases the cache through ``reshape(-1)``,
    so a permutation-gathered (F-ordered) input must still produce a
    C-contiguous tensor.
    """
    model = dyadic_model(seed, backend, with_fields, with_diag)
    ops = coupling_ops(model)
    rng = ensure_rng(seed + 2)
    R, n = 5, model.num_spins
    sigma = rng.choice(np.array([-1.0, 1.0]), size=(R, n))
    gathered = sigma[:, rng.permutation(n)]
    assert not gathered.flags["C_CONTIGUOUS"]
    for spins in (sigma, gathered):
        g = ops.batch_local_fields(spins)
        assert g.shape == (R, n)
        assert g.flags["C_CONTIGUOUS"]
        for r in range(R):
            assert np.array_equal(g[r], model.local_fields(spins[r]))
