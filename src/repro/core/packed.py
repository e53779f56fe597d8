"""Popcount/XOR coupling kernels over the bit-packed ±1 backend.

:class:`PackedCouplingOps` plugs a
:class:`~repro.ising.packed.PackedIsingModel` into the
:func:`~repro.core.coupling.coupling_ops` contract.  It inherits every
O(degree) incremental kernel from
:class:`~repro.core.coupling.SparseCouplingOps` — the model legitimately
retains its float CSR arrays, and those kernels touch O(Σ degree) data
per iteration, which profiling shows is *not* where replica time goes —
and replaces the two places the full spin state is traversed:

* ``batch_local_fields`` runs the cumulative-popcount kernel
  (:meth:`~repro.ising.packed.PackedIsingModel.packed_fields`) over
  bit-packed spin rows instead of a float ``bincount`` SpMV (arbitrary
  real inputs still go through the inherited ``batch_matvec``);
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


def _packed_fields(model: PackedIsingModel, words: np.ndarray) -> np.ndarray:
    """``(R, n)`` local fields of packed spin rows, one popcount pass each.

    Returns a C-contiguous tensor (the float field-update scatter aliases
    it through ``reshape(-1)``).
    """
    fields = np.empty((words.shape[0], model.num_spins), dtype=np.float64)
    for r in range(words.shape[0]):
        model.packed_fields(words[r], fields[r])
    return fields


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
        #: Cached ``(R, n)`` local fields ``g_r = J σ_r`` (C-contiguous;
        #: the engine hands this to the inherited float field-update
        #: kernels, whose values are exact multiples of the dyadic scale).
        self.fields = _packed_fields(model, self._words)
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

    The incremental kernels (``cross_term``, ``update_fields`` and the
    ``batch_*`` forms), ``batch_matvec`` for the SB engines and
    ``diag`` / ``offdiag_abs_values`` are inherited from
    :class:`~repro.core.coupling.SparseCouplingOps` and stay exact on the
    retained float CSR arrays; the full-state traversals dispatch to the
    popcount kernel and the packed replica state.
    """

    kind = "packed"

    def __init__(self, model: PackedIsingModel) -> None:
        super().__init__(model)
        self._packed = model

    def batch_local_fields(self, sigma: np.ndarray) -> np.ndarray:
        """``(R, n)`` local fields of ±1 spin rows via per-row popcount."""
        return _packed_fields(self._packed, pack_spin_rows(sigma))

    def make_batch_state(self, sigma: np.ndarray) -> PackedBatchState:
        """Bit-packed replica spin state for the batch engine."""
        return PackedBatchState(self._packed, sigma)

    def memory_bytes(self) -> int:
        """Bytes held by the coupling storage incl. packed structures."""
        return self._packed.memory_bytes()
