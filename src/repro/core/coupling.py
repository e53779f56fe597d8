"""Backend-agnostic coupling access for the annealer hot loops.

Algorithm 1 has two loops — the serial loop of :mod:`~repro.core.annealer`
(in-situ, SA and, through SA, MESA) and the lane loop of
:mod:`~repro.core.batch` (replica solves and block-stacked service runs).
Each coupling operation has one implementation per backend:

* ``batch_matvec(X)`` — the ``(R, n)`` products ``J x_r`` for arbitrary
  real rows, never densifying (the simulated-bifurcation engines of
  :mod:`~repro.core.sb`); ``batch_local_fields(Σ)`` is the same product
  on spin rows, the cached field state ``g = J σ``;
* ``batch_cross_term(G, F, Σ_F)`` — the incremental-E core ``σ_rᵀ J σ_c``
  from the cached fields, for ``(R, t)`` or ``(R, k, t)`` flip sets,
  summed over the flip-set axis;
* ``batch_update_fields(G, rows, F, Σ_F)`` — the rank-``t`` in-place
  update after an accepted flip, one scatter for every accepted replica.

The serial loop builds its one field row with ``batch_local_fields`` and
keeps only the per-iteration paths a single trajectory needs for speed:
``cross_term`` (a scalar expression at ``t == 1``, row 0 of
``batch_cross_term`` otherwise) and ``update_fields``.  ``diag()`` serves
the self-coupling correction.  The lane loop's replica spin tensor
has a backend-chosen layout: ``make_batch_state`` returns the spin-state
adapter (:class:`FloatBatchState` here, the bit-packed
:class:`~repro.core.packed.PackedBatchState` on the packed backend) that
gathers proposed spins, applies accepted flips and materialises bests.

:func:`coupling_ops` wraps a model in the matching adapter:
:class:`DenseCouplingOps` reproduces the seed's dense numpy expressions
verbatim, :class:`SparseCouplingOps` evaluates the same formulas over CSR
neighbour lists in O(degree) per flip, and
:class:`~repro.core.packed.PackedCouplingOps` runs popcount/XOR kernels
over bit-packed ±1 couplings.  Because all adapters compute the
identical mathematical expressions (and identical floating-point values
whenever sums are exactly representable), a solver is backend-transparent:
hand it any model type and fixed-seed trajectories coincide.
"""

from __future__ import annotations

import numpy as np

from repro.ising.model import IsingModel
from repro.ising.packed import PackedIsingModel
from repro.ising.sparse import SparseIsingModel


class FloatBatchState:
    """Replica spin state as the historical float ±1 ``(R, n)`` tensor.

    The batch engine's spin-state protocol: ``fields`` caches the
    ``(R, n)`` local fields, ``gather``/``flip`` read and toggle proposed
    spins, ``record_best`` materialises the best snapshots once per run,
    and the readout methods return int8 configurations (optionally
    permutation-mapped).
    Each operation is expression-for-expression the engine's historical
    inline code, so dense/sparse fixed-seed trajectories — and the golden
    rows pinned on them — are unchanged by the state abstraction.
    """

    def __init__(self, ops, sigma: np.ndarray) -> None:
        self._sigma = sigma
        #: Cached ``(R, n)`` local fields ``g_r = J σ_r`` (C-contiguous
        #: per the batch_local_fields producer contract).
        self.fields = ops.batch_local_fields(sigma)
        self._best: np.ndarray | None = None  # materialised by record_best

    def gather(self, rows: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Current values of spins ``idx[r]`` per replica (±1.0 float)."""
        return self._sigma[rows, idx]

    def flip(self, acc: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> None:
        """Negate spins ``cols[a]`` of accepted replicas ``acc``."""
        self._sigma[acc[:, None], cols] = -vals

    def record_best(self, rows: np.ndarray, cols: np.ndarray) -> None:
        """Materialise the best snapshots from the current spins.

        Spin ``cols[a]`` of replica ``rows[a]`` is negated once per
        listing, so a spin listed twice keeps its current value.
        """
        best = self._sigma.copy()
        flat = (rows[:, None] * best.shape[1] + cols).ravel()
        # multiply.at applies repeated indices once each (parity).
        # Aliasing audited: best is a fresh C-contiguous .copy().
        np.multiply.at(best.reshape(-1), flat, -1.0)  # repro-lint: disable=RPL004
        self._best = best

    def _readout(self, sigma: np.ndarray, fwd: np.ndarray | None) -> np.ndarray:
        if fwd is not None:
            sigma = sigma[:, fwd]
        return sigma.astype(np.int8)

    def final_sigmas(self, fwd: np.ndarray | None) -> np.ndarray:
        """The current replica spins as ``(R, n)`` int8."""
        return self._readout(self._sigma, fwd)

    def best_sigmas(self, fwd: np.ndarray | None) -> np.ndarray:
        """The per-replica best snapshots as ``(R, n)`` int8."""
        assert self._best is not None, "record_best materialises the snapshots"
        return self._readout(self._best, fwd)

    def memory_bytes(self) -> int:
        """Bytes held by the spin tensors and the field cache."""
        best = 0 if self._best is None else self._best.nbytes
        return int(self._sigma.nbytes + best + self.fields.nbytes)


class _CouplingOps:
    """What the dense and CSR adapters share: the serial cross term,
    ``diag()``, the field cache and the float replica state."""

    def diag(self) -> np.ndarray:
        """``diag(J)`` as a dense vector."""
        return self._diag

    def batch_local_fields(self, sigma: np.ndarray) -> np.ndarray:
        """``(R, n)`` local fields ``g_r = J σ_r`` (C-contiguous)."""
        return self.batch_matvec(sigma)

    def cross_term(self, g: np.ndarray, flips: np.ndarray, sig_f: np.ndarray) -> float:
        """``σ_rᵀ J σ_c`` of one trajectory from its cached local fields.

        ``t == 1`` is the serial loop's scalar fast path; larger flip sets
        are row 0 of :meth:`batch_cross_term`.
        """
        if flips.shape[0] == 1:
            j0 = int(flips[0])
            return float(-sig_f[0] * (g[j0] - self._diag[j0] * sig_f[0]))
        return float(self.batch_cross_term(g[None], flips[None], sig_f[None])[0])

    def make_batch_state(self, sigma: np.ndarray) -> FloatBatchState:
        """Replica spin-state adapter for the batch engine (float layout)."""
        return FloatBatchState(self, sigma)


class DenseCouplingOps(_CouplingOps):
    """Coupling operations over a dense symmetric matrix (the seed's path)."""

    kind = "dense"

    def __init__(self, model: IsingModel) -> None:
        self._J = model.J
        self._diag = np.diag(self._J).copy()

    def batch_matvec(self, x: np.ndarray) -> np.ndarray:
        """``(R, n)`` products ``J x_r`` for a batch of real vectors (O(R·n²))."""
        return x @ self._J  # J symmetric, so the row-major product works

    def update_fields(self, g: np.ndarray, flips: np.ndarray, sig_f: np.ndarray) -> None:
        """In-place ``g ← g − 2 J[:, F] σ_F`` after an accepted flip."""
        g -= 2.0 * (self._J[:, flips] @ sig_f)

    def batch_cross_term(
        self, g: np.ndarray, idx: np.ndarray, sig_f: np.ndarray
    ) -> np.ndarray:
        """Cross terms ``σ_rᵀ J σ_c`` for per-replica flip sets.

        ``idx`` and ``sig_f`` are ``(R, t)`` — replica ``r`` proposes the
        flip set ``idx[r]`` (unique indices) currently valued ``sig_f[r]``
        — or ``(R, k, t)``, ``k`` flip sets per replica.  For each flipped
        spin, the contribution of the *other* flipped spins of its set is
        subtracted from the cached field; the sum runs over the flip-set
        axis, so the result is ``(R,)`` or ``(R, k)``.  The ``t == 1``
        fast path reuses the cached diagonal.
        """
        rows = np.arange(idx.shape[0]).reshape((-1,) + (1,) * (idx.ndim - 1))
        g_f = g[rows, idx]
        if idx.shape[-1] == 1:
            sub = self._diag[idx] * sig_f
        else:
            sub = np.einsum(
                "...kl,...l->...k",
                self._J[idx[..., :, None], idx[..., None, :]],
                sig_f,
            )
        return (-(sig_f * (g_f - sub))).sum(axis=-1)

    def batch_update_fields(
        self, g: np.ndarray, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray
    ) -> None:
        """Per-replica rank-``t`` field update for accepted replicas.

        ``rows`` (A,) are accepted replica indices; ``cols`` / ``vals`` are
        ``(A, t)`` flip sets and pre-flip spin values.  Loops over the
        ``t`` flip slots — each slot is one column gather per accepted
        replica, so memory stays O(A·n) with no ``(n, A, t)``
        intermediate.
        """
        for k in range(cols.shape[1]):
            g[rows] -= 2.0 * (self._J[:, cols[:, k]].T * vals[:, k][:, None])

    def offdiag_abs_values(self) -> np.ndarray:
        """|J_ij| of all off-diagonal entries (both triangles)."""
        n = self._J.shape[0]
        return np.abs(self._J[~np.eye(n, dtype=bool)])

    def memory_bytes(self) -> int:
        """Bytes held by the coupling storage."""
        return int(self._J.nbytes)


class SparseCouplingOps(_CouplingOps):
    """Coupling operations over CSR storage: O(degree) per flipped spin."""

    kind = "sparse"

    def __init__(self, model: SparseIsingModel) -> None:
        self._model = model
        self._indptr, self._indices, self._data = model.csr_arrays()
        self._diag = model.coupling_diagonal()
        self._n = model.num_spins

    def batch_matvec(self, x: np.ndarray) -> np.ndarray:
        """``(R, n)`` products ``J x_r``: one CSR ``bincount`` SpMV per row.

        O(R·nnz), no densification, no ±1 restriction on ``x`` (the SB
        engines drive it with continuous positions).  For dyadic couplings
        and dyadic inputs every partial sum is exact, so the result is
        bit-identical to the dense product.  The per-row loop keeps one
        ``n``-vector and the shared CSR arrays cache-resident; a one-shot
        segmented reduction over an ``(R, nnz)`` gather measured 3–7×
        slower up to R=100 / n=10k.
        """
        # Explicit C order: zeros_like would inherit the layout of e.g. a
        # permutation-gathered sigma ([:, bwd] returns F order), and an
        # F-ordered g turns the reshape(-1) in batch_update_fields into a
        # silent copy that drops the scatter-update.
        g = np.zeros(x.shape, dtype=np.float64)
        for r in range(x.shape[0]):
            g[r] = self._model._matvec(x[r])
        return g

    def _gather_rows(self, spins: np.ndarray):
        """Concatenated neighbour lists of ``spins`` without a Python loop.

        Returns ``(counts, nbr, w)``: per-spin neighbour counts and the
        flat column-index / value arrays of all their CSR rows, in order.
        O(Σ degree) time and memory.
        """
        starts = self._indptr[spins]
        counts = self._indptr[spins + 1] - starts
        total = int(counts.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.intp)
            return counts, empty, np.empty(0, dtype=np.float64)
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        pos = np.repeat(starts - offsets, counts) + np.arange(total)
        return counts, self._indices[pos], self._data[pos]

    def update_fields(self, g: np.ndarray, flips: np.ndarray, sig_f: np.ndarray) -> None:
        """In-place rank-``|F|`` field update touching only neighbours."""
        for j, s in zip(flips, sig_f):
            lo, hi = self._indptr[j], self._indptr[j + 1]
            g[self._indices[lo:hi]] -= 2.0 * (self._data[lo:hi] * s)

    def batch_cross_term(
        self, g: np.ndarray, idx: np.ndarray, sig_f: np.ndarray
    ) -> np.ndarray:
        """Cross terms for per-replica rank-``t`` flip sets.

        Shapes and mathematics as in
        :meth:`DenseCouplingOps.batch_cross_term`.  The flip-set
        intersection runs as one global binary search — every flipped
        spin is keyed by ``set·n + spin`` and the keys are sorted once, so
        every gathered neighbour of every flipped spin resolves against a
        single sorted key array.  O(Σ degree · log(R·t)) time, O(Σ degree)
        memory; the coupling matrix is never densified.
        """
        t = idx.shape[-1]
        rows = np.arange(idx.shape[0]).reshape((-1,) + (1,) * (idx.ndim - 1))
        g_f = g[rows, idx]
        if t == 1:
            return (-(sig_f * (g_f - self._diag[idx] * sig_f))).sum(axis=-1)
        flat = idx.ravel()
        size = flat.size
        set_of = np.arange(size) // t
        keys = set_of * self._n + flat
        order = np.argsort(keys)
        keys = keys[order]
        counts, nbr, w = self._gather_rows(flat)
        seg = np.repeat(np.arange(size), counts)
        nbr_keys = set_of[seg] * self._n + nbr
        loc = np.minimum(np.searchsorted(keys, nbr_keys), size - 1)
        hit = keys[loc] == nbr_keys
        sub = np.bincount(
            seg[hit],
            weights=w[hit] * sig_f.ravel()[order[loc[hit]]],
            minlength=size,
        )
        return (-(sig_f * (g_f - sub.reshape(idx.shape)))).sum(axis=-1)

    def batch_update_fields(
        self, g: np.ndarray, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray
    ) -> None:
        """Per-replica rank-``t`` update via a flat scatter-subtract.

        ``rows`` (A,) are accepted replica indices; ``cols`` / ``vals`` are
        ``(A, t)``.  O(Σ degree · log) time and memory — neighbour lists
        only, no ``(n, n)`` or ``(A, t, n)`` intermediate.
        """
        t = cols.shape[1]
        counts, nbr, w = self._gather_rows(cols.ravel())
        if nbr.size == 0:
            return
        flat = np.repeat(np.repeat(rows, t), counts) * self._n + nbr
        contrib = w * np.repeat(vals.ravel(), counts)
        # Aliasing audited: every producer of g (batch_matvec, the packed
        # popcount fields) returns C order, so reshape(-1) is a view.
        if t == 1:
            # `rows` are distinct replicas and neighbour lists have unique
            # columns, so the flat indices are unique and fancy -= is safe.
            g.reshape(-1)[flat] -= 2.0 * contrib  # repro-lint: disable=RPL004
            return
        # Two flipped spins of one replica may share a neighbour, giving
        # duplicate flat indices that a fancy -= would silently drop:
        # collapse duplicates with a segment sum first.
        uniq, inv = np.unique(flat, return_inverse=True)
        g.reshape(-1)[uniq] -= 2.0 * np.bincount(inv, weights=contrib)  # repro-lint: disable=RPL004

    def offdiag_abs_values(self) -> np.ndarray:
        """|J_ij| of all stored off-diagonal entries (both triangles)."""
        return self._model.offdiag_abs_values()

    def memory_bytes(self) -> int:
        """Bytes held by the coupling storage."""
        return self._model.memory_bytes()


def coupling_ops(model):
    """Wrap ``model`` in the coupling-operation adapter for its backend."""
    if isinstance(model, PackedIsingModel):
        # Local import: repro.core.packed subclasses SparseCouplingOps,
        # so a module-level import would be circular.
        from repro.core.packed import PackedCouplingOps

        return PackedCouplingOps(model)
    if isinstance(model, SparseIsingModel):
        return SparseCouplingOps(model)
    if isinstance(model, IsingModel) or getattr(model, "J", None) is not None:
        return DenseCouplingOps(model)
    raise TypeError(
        f"expected an IsingModel or SparseIsingModel, got {type(model).__name__}"
    )


def auto_acceptance_scale(model) -> float:
    """Read-out gain making the typical coupling magnitude ~O(1).

    Backend-agnostic version of the seed's ``_auto_scale``: both adapters
    feed the same multiset of nonzero off-diagonal |J_ij| into the median,
    so the gain — and therefore the annealing trajectory — is identical for
    dense and sparse models of the same Hamiltonian.  Chosen so a minimal
    uphill move stays rejected until the fractional factor has decayed well
    below 0.1 (the gain ablation bench sweeps this).
    """
    off = coupling_ops(model).offdiag_abs_values()
    nonzero = off[off > 0]
    if nonzero.size == 0:
        return 1.0
    return 15.0 / float(np.median(nonzero))
