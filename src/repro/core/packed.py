"""Popcount/XOR coupling kernels over the bit-packed ±1 backend.

:class:`PackedCouplingOps` plugs a
:class:`~repro.ising.packed.PackedIsingModel` into the
:func:`~repro.core.coupling.coupling_ops` contract.  It inherits every
O(degree) incremental kernel from
:class:`~repro.core.coupling.SparseCouplingOps` — the model legitimately
retains its float CSR arrays, and those kernels touch O(Σ degree) data
per iteration, which profiling shows is *not* where replica time goes —
and replaces the two places the full spin state is traversed:

* ``local_fields`` / ``batch_local_fields`` run the cumulative-popcount
  kernel (:meth:`~repro.ising.packed.PackedIsingModel.packed_fields`)
  over bit-packed spin rows instead of a float ``bincount`` SpMV;
* ``make_batch_state`` hands the batch engine a
  :class:`PackedBatchState` holding the replica spin tensor as uint64
  words — flips become XOR masks and gathers read bits, cutting the
  engine's per-iteration state traffic 64×; the best snapshot is
  materialised once per run by XOR-ing the undone flips into a copy of
  the final words.

Both replacements compute exactly the floats the sparse kernels compute
(every value is a small-integer multiple of the shared dyadic magnitude
``c`` — see :mod:`repro.ising.packed`), so fixed-seed trajectories stay
bit-identical to the sparse backend.
"""

from __future__ import annotations

import numpy as np

from repro.core.coupling import SparseCouplingOps
from repro.ising.packed import (
    PackedIsingModel,
    pack_spin_rows,
    unpack_spin_rows,
)

_U64_ONE = np.uint64(1)


def _toggle(words: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> None:
    """XOR spin ``cols[a]`` of row ``rows[a]`` in a ``(R, W)`` word tensor."""
    flat = (rows[:, None] * words.shape[1] + (cols >> 6)).ravel()
    masks = (_U64_ONE << (cols & 63).astype(np.uint64)).ravel()
    # XOR accumulates duplicate indices correctly under ufunc.at (unlike
    # fancy assignment), so two toggled spins landing in the same word
    # both toggle, and a spin listed twice toggles back.  Aliasing
    # audited: both callers pass a C-contiguous tensor (pack_spin_rows
    # fills np.zeros in place; the best snapshot is a .copy()), so
    # reshape(-1) is a view.
    np.bitwise_xor.at(words.reshape(-1), flat, masks)  # repro-lint: disable=RPL004


class PackedBatchState:
    """Replica spin state as a ``(R, ceil(n/64))`` uint64 word tensor.

    Implements the batch engine's spin-state protocol (see
    :class:`~repro.core.coupling.FloatBatchState` for the float twin):
    ``fields`` is the cached ``(R, n)`` float local-field tensor,
    ``gather`` reads proposed spins (as ±1.0 float64, the exact values
    the float state would hand over), ``flip`` toggles accepted spins
    with XOR masks, ``record_best`` materialises the best snapshots with
    the same XOR, and the readout methods unpack to the engine's int8
    contract.
    """

    def __init__(self, model: PackedIsingModel, sigma: np.ndarray) -> None:
        self._n = int(sigma.shape[1])
        self._words = pack_spin_rows(sigma)
        replicas = sigma.shape[0]
        fields = np.empty((replicas, self._n), dtype=np.float64)
        for r in range(replicas):
            model.packed_fields(self._words[r], fields[r])
        #: Cached ``(R, n)`` local fields ``g_r = J σ_r`` (C-contiguous;
        #: the engine hands this to the inherited float field-update
        #: kernels, whose values are exact multiples of the dyadic scale).
        self.fields = fields
        self._best: np.ndarray | None = None  # materialised by record_best

    def gather(self, rows: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Current values of spins ``idx[r]`` per replica, as ±1.0 float."""
        bits = (
            self._words[rows, idx >> 6] >> (idx & 63).astype(np.uint64)
        ) & _U64_ONE
        return bits.astype(np.float64) * 2.0 - 1.0

    def flip(self, acc: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> None:
        """Toggle spins ``cols[a]`` of accepted replicas ``acc`` (XOR).

        ``vals`` (the pre-flip values, consumed by the float twin's
        scatter) is unused: XOR toggles a spin bit regardless of its
        current value, which is exactly the flip semantics.
        """
        del vals
        _toggle(self._words, acc, cols)

    def record_best(self, rows: np.ndarray, cols: np.ndarray) -> None:
        """Materialise the best snapshots from the current words.

        Same parity contract as
        :meth:`~repro.core.coupling.FloatBatchState.record_best`, by XOR.
        """
        best = self._words.copy()
        _toggle(best, rows, cols)
        self._best = best

    def _readout(self, words: np.ndarray, fwd: np.ndarray | None) -> np.ndarray:
        sigma = unpack_spin_rows(words, self._n)
        return sigma if fwd is None else sigma[:, fwd]

    def final_sigmas(self, fwd: np.ndarray | None) -> np.ndarray:
        """Unpack the current replica spins to ``(R, n)`` int8."""
        return self._readout(self._words, fwd)

    def best_sigmas(self, fwd: np.ndarray | None) -> np.ndarray:
        """Unpack the per-replica best snapshots to ``(R, n)`` int8."""
        assert self._best is not None, "record_best materialises the snapshots"
        return self._readout(self._best, fwd)

    def memory_bytes(self) -> int:
        """Bytes held by the packed spin tensors and the field cache."""
        best = 0 if self._best is None else self._best.nbytes
        return int(self._words.nbytes + best + self.fields.nbytes)


class PackedCouplingOps(SparseCouplingOps):
    """Coupling operations over the bit-packed sign-only backend.

    The incremental kernels (``cross_term`` / ``update_fields`` and their
    batch variants, ``matvec`` / ``batch_matvec`` for the SB engines,
    ``diag`` / ``offdiag_abs_values``) are inherited from
    :class:`~repro.core.coupling.SparseCouplingOps` and stay exact on the
    retained float CSR arrays; the full-state traversals dispatch to the
    popcount kernel and the packed replica state.
    """

    kind = "packed"

    def __init__(self, model: PackedIsingModel) -> None:
        super().__init__(model)
        self._packed = model

    def local_fields(self, sigma: np.ndarray) -> np.ndarray:
        """``g = J σ`` via cumulative popcount (O(nnz) bit traffic).

        ``sigma`` must be a ±1 spin vector (the ``local_fields``
        contract); arbitrary real inputs go through the inherited
        :meth:`~repro.core.coupling.SparseCouplingOps.matvec`.
        """
        words = pack_spin_rows(np.asarray(sigma)[None, :])[0]
        out = np.empty(self._n, dtype=np.float64)
        return self._packed.packed_fields(words, out)

    def batch_local_fields(self, sigma: np.ndarray) -> np.ndarray:
        """``(R, n)`` local fields via per-replica popcount.

        Returns a C-contiguous tensor (same producer contract as the
        sparse kernels: the field-update scatter aliases it through
        ``reshape(-1)``).
        """
        words = pack_spin_rows(sigma)
        g = np.empty(sigma.shape, dtype=np.float64)
        for r in range(sigma.shape[0]):
            self._packed.packed_fields(words[r], g[r])
        return g

    def make_batch_state(self, sigma: np.ndarray) -> PackedBatchState:
        """Bit-packed replica spin state for the batch engine."""
        return PackedBatchState(self._packed, sigma)

    def memory_bytes(self) -> int:
        """Bytes held by the coupling storage incl. packed structures."""
        return self._packed.memory_bytes()
