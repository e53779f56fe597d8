"""Backend-agnostic coupling access for the annealer hot loops.

Algorithm 1 has two loops — the serial loop of :mod:`~repro.core.annealer`
(in-situ, SA and, through SA, MESA) and the lane loop of
:mod:`~repro.core.batch` (replica solves and block-stacked service runs).
Each needs the same three operations on the coupling matrix, in a serial
and a batch form, plus ``diag()`` for the self-coupling correction:

* ``local_fields(σ)`` / ``batch_local_fields(Σ)`` — the cached state
  ``g = J σ`` of one trajectory / of an ``(R, n)`` replica batch;
* ``cross_term(g, F, σ_F)`` / ``batch_cross_term(G, F, Σ_F)`` — the
  incremental-E core ``σ_rᵀ J σ_c`` from the cached fields; the batch
  form takes ``(R, t)`` or ``(R, k, t)`` flip sets and sums over the
  flip-set axis;
* ``update_fields(g, F, σ_F)`` / ``batch_update_fields(G, rows, F, Σ_F)``
  — the rank-``|F|`` in-place update after an accepted flip (one scatter
  for every accepted replica).

The simulated-bifurcation engines (:mod:`~repro.core.sb`) add
``matvec(x)`` / ``batch_matvec(X)``, the plain product ``J x`` for
*arbitrary real* inputs, never densifying.  The lane loop's replica spin
tensor has a backend-chosen layout: ``make_batch_state`` returns the
spin-state adapter (:class:`FloatBatchState` here, the bit-packed
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


class DenseCouplingOps:
    """Coupling operations over a dense symmetric matrix (the seed's path)."""

    kind = "dense"

    def __init__(self, model: IsingModel) -> None:
        self._J = model.J
        self._diag = np.diag(self._J).copy()

    def diag(self) -> np.ndarray:
        """``diag(J)`` as a dense vector."""
        return self._diag

    def local_fields(self, sigma: np.ndarray) -> np.ndarray:
        """``g = J σ`` (O(n²))."""
        return self._J @ sigma

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``J x`` for an arbitrary real vector (O(n²)).

        Unlike :meth:`local_fields` the input is not restricted to ±1 spin
        vectors — the simulated-bifurcation engines drive this with
        continuous positions (bSB) as well as sign readouts (dSB).
        """
        return self._J @ x

    def batch_matvec(self, x: np.ndarray) -> np.ndarray:
        """``(R, n)`` products ``J x_r`` for a batch of real vectors."""
        return x @ self._J  # J symmetric, so the row-major product works

    def cross_term(self, g: np.ndarray, flips: np.ndarray, sig_f: np.ndarray) -> float:
        """``σ_rᵀ J σ_c`` from the cached local fields (O(n·|F|))."""
        if flips.shape[0] == 1:
            j0 = int(flips[0])
            return float(-sig_f[0] * (g[j0] - self._diag[j0] * sig_f[0]))
        sub = self._J[np.ix_(flips, flips)] @ sig_f
        return float(-(sig_f * (g[flips] - sub)).sum())

    def update_fields(self, g: np.ndarray, flips: np.ndarray, sig_f: np.ndarray) -> None:
        """In-place ``g ← g − 2 J[:, F] σ_F`` after an accepted flip."""
        g -= 2.0 * (self._J[:, flips] @ sig_f)

    def batch_local_fields(self, sigma: np.ndarray) -> np.ndarray:
        """``(R, n)`` local fields ``σ J`` for a replica batch."""
        return sigma @ self._J  # J symmetric, so the row-major product works

    def batch_cross_term(
        self, g: np.ndarray, idx: np.ndarray, sig_f: np.ndarray
    ) -> np.ndarray:
        """Cross terms ``σ_rᵀ J σ_c`` for per-replica flip sets.

        ``idx`` and ``sig_f`` are ``(R, t)`` — replica ``r`` proposes the
        flip set ``idx[r]`` (unique indices) currently valued ``sig_f[r]``
        — or ``(R, k, t)``, ``k`` flip sets per replica.  Same formula as
        :meth:`cross_term` per flip set, evaluated array-wide and summed
        over the flip-set axis: the result is ``(R,)`` or ``(R, k)``.  The
        ``t == 1`` fast path reuses the cached diagonal.
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
        ``(A, t)`` flip sets and pre-flip spin values (1-D accepted for the
        legacy single-flip call shape).  Loops over the ``t`` flip slots —
        each slot is one column gather per accepted replica, so memory
        stays O(A·n) with no ``(n, A, t)`` intermediate.
        """
        if cols.ndim == 1:
            g[rows] -= 2.0 * (self._J[:, cols].T * vals[:, None])
            return
        for k in range(cols.shape[1]):
            g[rows] -= 2.0 * (self._J[:, cols[:, k]].T * vals[:, k][:, None])

    def offdiag_abs_values(self) -> np.ndarray:
        """|J_ij| of all off-diagonal entries (both triangles)."""
        n = self._J.shape[0]
        return np.abs(self._J[~np.eye(n, dtype=bool)])

    def make_batch_state(self, sigma: np.ndarray) -> FloatBatchState:
        """Replica spin-state adapter for the batch engine (float layout)."""
        return FloatBatchState(self, sigma)

    def memory_bytes(self) -> int:
        """Bytes held by the coupling storage."""
        return int(self._J.nbytes)


class SparseCouplingOps:
    """Coupling operations over CSR storage: O(degree) per flipped spin."""

    kind = "sparse"

    def __init__(self, model: SparseIsingModel) -> None:
        self._model = model
        self._indptr, self._indices, self._data = model.csr_arrays()
        self._diag = model.coupling_diagonal()
        self._n = model.num_spins

    def diag(self) -> np.ndarray:
        """``diag(J)`` as a dense vector."""
        return self._diag

    def local_fields(self, sigma: np.ndarray) -> np.ndarray:
        """``g = J σ`` (O(nnz))."""
        return self._model._matvec(sigma)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``J x`` via the CSR ``bincount`` SpMV (O(nnz), no densification).

        The kernel places no ±1 restriction on ``x``, so the SB engines'
        continuous positions go through the same code path as spin
        readouts; for dyadic couplings *and* dyadic inputs every partial
        sum is exact and the result is bit-identical to the dense product.
        """
        return self._model._matvec(x)

    def batch_matvec(self, x: np.ndarray) -> np.ndarray:
        """``(R, n)`` products ``J x_r`` per replica (O(R·nnz))."""
        # Same per-replica bincount kernel (and C-order guarantee) as
        # batch_local_fields — see _batch_local_fields_loop.
        return self._batch_local_fields_loop(x)

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

    def cross_term(self, g: np.ndarray, flips: np.ndarray, sig_f: np.ndarray) -> float:
        """``σ_rᵀ J σ_c`` from the cached local fields (O(Σ degree))."""
        if flips.shape[0] == 1:
            j0 = int(flips[0])
            return float(-sig_f[0] * (g[j0] - self._diag[j0] * sig_f[0]))
        # sub[k] = Σ_l J[f_k, f_l] σ_F[l]: intersect each flipped row's
        # neighbour list with the flip set via binary search.
        t = flips.shape[0]
        order = np.argsort(flips)
        sorted_flips = flips[order]
        sub = np.zeros(t, dtype=np.float64)
        for k in range(t):
            lo, hi = self._indptr[flips[k]], self._indptr[flips[k] + 1]
            nbr = self._indices[lo:hi]
            loc = np.searchsorted(sorted_flips, nbr)
            loc = np.minimum(loc, t - 1)
            hit = sorted_flips[loc] == nbr
            if hit.any():
                sub[k] = self._data[lo:hi][hit] @ sig_f[order[loc[hit]]]
        return float(-(sig_f * (g[flips] - sub)).sum())

    def update_fields(self, g: np.ndarray, flips: np.ndarray, sig_f: np.ndarray) -> None:
        """In-place rank-``|F|`` field update touching only neighbours."""
        for j, s in zip(flips, sig_f):
            lo, hi = self._indptr[j], self._indptr[j + 1]
            g[self._indices[lo:hi]] -= 2.0 * (self._data[lo:hi] * s)

    def batch_local_fields(self, sigma: np.ndarray) -> np.ndarray:
        """``(R, n)`` local fields for a replica batch (O(R·nnz)).

        Dispatches to the per-replica ``bincount`` kernel.  Benchmarked
        against the one-shot segmented reduction
        (:meth:`batch_local_fields_reduction`,
        ``benchmarks/bench_batch_fields.py``): the loop's cache-resident
        per-replica working set (one ``n``-vector and the shared CSR
        arrays) wins 3-7× at every measured size up to R=100 / n=10k,
        because the reduction materialises — then re-reads — an
        ``(R, nnz)`` intermediate that is pure extra memory traffic.
        """
        return self._batch_local_fields_loop(sigma)

    def batch_local_fields_reduction(self, sigma: np.ndarray) -> np.ndarray:
        """``(R, n)`` local fields via one segmented reduction.

        A single prefix-sum difference over the ``(R, nnz)`` gather — no
        Python-level replica loop.  Empty rows subtract equal prefix
        values and come out exactly 0; for dyadic couplings every partial
        sum is exact, so the result is bit-identical to the looped kernel
        (asserted by the bench and the equivalence tests).  Kept as the
        measured alternative: on current numpy/hardware the looped kernel
        is faster, so :meth:`batch_local_fields` does not dispatch here.
        """
        if self._data.size == 0:
            return np.zeros_like(sigma, dtype=np.float64)
        contrib = sigma[:, self._indices] * self._data
        prefix = np.zeros((sigma.shape[0], self._data.size + 1), dtype=np.float64)
        np.cumsum(contrib, axis=1, out=prefix[:, 1:])
        # ascontiguousarray: mixed basic+advanced indexing returns an
        # F-ordered array, whose .reshape(-1) in batch_update_fields would
        # silently copy instead of aliasing g.
        return np.ascontiguousarray(
            prefix[:, self._indptr[1:]] - prefix[:, self._indptr[:-1]]
        )

    def _batch_local_fields_loop(self, sigma: np.ndarray) -> np.ndarray:
        """Per-replica bincount kernel (the measured-fastest path)."""
        # Explicit C order: zeros_like would inherit the layout of e.g. a
        # permutation-gathered sigma ([:, bwd] returns F order), and an
        # F-ordered g turns the reshape(-1) in batch_update_fields into a
        # silent copy that drops the scatter-update.
        g = np.zeros(sigma.shape, dtype=np.float64)
        for r in range(sigma.shape[0]):
            g[r] = self._model._matvec(sigma[r])
        return g

    def batch_cross_term(
        self, g: np.ndarray, idx: np.ndarray, sig_f: np.ndarray
    ) -> np.ndarray:
        """Cross terms for per-replica rank-``t`` flip sets.

        Shapes as in :meth:`DenseCouplingOps.batch_cross_term`: ``(R, t)``
        flip sets give ``(R,)``, ``(R, k, t)`` give ``(R, k)``.  Same
        mathematics as :meth:`cross_term` per flip set: for each flipped
        spin, the contribution of *other* flipped spins in the same set is
        subtracted from the cached field.  The flip-set intersection runs
        as one global binary search — each set is sorted and keyed by
        ``set·n + spin``, so every gathered neighbour of every flipped spin
        resolves against a single sorted key array.  O(Σ degree · log t)
        time, O(Σ degree) memory; the coupling matrix is never densified.
        """
        t = idx.shape[-1]
        rows = np.arange(idx.shape[0]).reshape((-1,) + (1,) * (idx.ndim - 1))
        g_f = g[rows, idx]
        if t == 1:
            return (-(sig_f * (g_f - self._diag[idx] * sig_f))).sum(axis=-1)
        sets = idx.reshape(-1, t)
        num_sets = sets.shape[0]
        order = np.argsort(sets, axis=1)
        sorted_idx = np.take_along_axis(sets, order, axis=1)
        sorted_sig = np.take_along_axis(sig_f.reshape(-1, t), order, axis=1).ravel()
        keys = (np.arange(num_sets)[:, None] * self._n + sorted_idx).ravel()
        counts, nbr, w = self._gather_rows(sets.ravel())
        sub = np.zeros(num_sets * t, dtype=np.float64)
        if nbr.size:
            rep = np.repeat(np.repeat(np.arange(num_sets), t), counts)
            nbr_keys = rep * self._n + nbr
            loc = np.minimum(np.searchsorted(keys, nbr_keys), keys.size - 1)
            hit = keys[loc] == nbr_keys
            if hit.any():
                seg = np.repeat(np.arange(num_sets * t), counts)
                sub = np.bincount(
                    seg[hit],
                    weights=w[hit] * sorted_sig[loc[hit]],
                    minlength=num_sets * t,
                )
        return (-(sig_f * (g_f - sub.reshape(idx.shape)))).sum(axis=-1)

    def batch_update_fields(
        self, g: np.ndarray, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray
    ) -> None:
        """Per-replica rank-``t`` update via a flat scatter-subtract.

        ``rows`` (A,) are accepted replica indices; ``cols`` / ``vals`` are
        ``(A, t)`` (1-D accepted for the legacy single-flip call shape).
        O(Σ degree · log) time and memory — neighbour lists only, no
        ``(n, n)`` or ``(A, t, n)`` intermediate.
        """
        if cols.ndim == 2 and cols.shape[1] == 1:
            cols, vals = cols[:, 0], vals[:, 0]
        if cols.ndim == 1:
            counts, nbr, w = self._gather_rows(cols)
            if nbr.size == 0:
                return
            flat = np.repeat(rows, counts) * self._n + nbr
            # `rows` are distinct replicas and neighbour lists have unique
            # columns, so the flat indices are unique and fancy -= is safe.
            # Aliasing audited: every producer of g returns C order
            # (_batch_local_fields_loop zeros in C order explicitly;
            # the reduction kernel runs through ascontiguousarray).
            g.reshape(-1)[flat] -= 2.0 * w * np.repeat(vals, counts)  # repro-lint: disable=RPL004
            return
        t = cols.shape[1]
        counts, nbr, w = self._gather_rows(cols.ravel())
        if nbr.size == 0:
            return
        flat = np.repeat(np.repeat(rows, t), counts) * self._n + nbr
        contrib = w * np.repeat(vals.ravel(), counts)
        # Two flipped spins of one replica may share a neighbour, giving
        # duplicate flat indices that a fancy -= would silently drop:
        # collapse duplicates with a segment sum first.
        # Aliasing audited: g is C-contiguous by the same producer
        # contract as the rank-1 path above.
        uniq, inv = np.unique(flat, return_inverse=True)
        g.reshape(-1)[uniq] -= 2.0 * np.bincount(inv, weights=contrib)  # repro-lint: disable=RPL004

    def offdiag_abs_values(self) -> np.ndarray:
        """|J_ij| of all stored off-diagonal entries (both triangles)."""
        return self._model.offdiag_abs_values()

    def make_batch_state(self, sigma: np.ndarray) -> FloatBatchState:
        """Replica spin-state adapter for the batch engine (float layout)."""
        return FloatBatchState(self, sigma)

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
