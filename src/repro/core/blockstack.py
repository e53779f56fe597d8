"""Block-diagonal model union: many small jobs as one batch engine run.

The serving layer (:mod:`repro.serve`) packs independent solve jobs into
a single rank-``t`` batch step: couplings of ``k`` member models are laid
side by side as the block-diagonal union ``J = diag(J_1, …, J_k)``.
Disjoint blocks never interact — a flip in job ``i``'s block leaves every
other job's local fields untouched — so **one** ``(R, Σ n_i)`` engine
iteration advances all ``k`` tenants simultaneously, and per-job results
slice back out *bit-identically* to ``k`` solo ``solve_ising`` calls.

Bit-identity is the load-bearing contract (the service bench asserts it
before timing anything), and it holds because a stacked run *is* the
solo run, widened:

* :func:`compile_lane` builds the job's solo batch engine on the job's
  own ``ensure_rng(seed)`` stream and calls its draw method
  (:meth:`~repro.core.batch._BatchEngine._draw`), so the lane holds the
  solo run's exact draws — there is no second copy of the draw order;
* :func:`run_stacked` hands the lanes to the engine's own lane loop
  (:func:`~repro.core.batch._run_lanes`) over the union: per-*(replica,
  job)* accept decisions, ``(R, k, t)`` cross terms summed per flip set
  by :meth:`~repro.core.coupling.SparseCouplingOps.batch_cross_term`
  (cross-block couplings are structurally zero, so each job's flip set
  sees exactly its solo contributions), field terms and energies per
  job, and each job's best state tracked lazily per *(replica, job)* —
  its last improving iteration — and materialised once after the run
  by undoing the job's later accepted flips in its own column block.

Every block is padded to a 64-spin boundary with isolated, never-proposed
padding spins so the packed backend's word layout slices cleanly; the
union stays :class:`~repro.ising.sparse.SparseIsingModel` (members are
promoted from dense via ``from_ising`` — the union's scatter kernels
collapse duplicate indices, which the dense ops' fancy indexing would
drop) and is itself promoted to
:class:`~repro.ising.packed.PackedIsingModel` when every member is packed
with one shared dyadic magnitude, preserving packed eligibility across
the stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.batch import (
    _BATCH_ENGINES,
    BatchAnnealResult,
    StackedLane,
    _run_lanes,
)
from repro.ising.packed import PackedIsingModel
from repro.ising.sparse import SparseIsingModel
from repro.utils.validation import check_choice, check_count

#: Methods the block-diagonal union can pack: the two flip-proposal batch
#: engines.  SB integrates all positions through one matvec per step and
#: MESA has no batch engine — those run solo (see ``repro.serve``).
PACK_METHODS = tuple(_BATCH_ENGINES)

#: Blocks are padded to this boundary so each job owns whole packed spin
#: words: its XOR flips and popcount field reads never touch a word that
#: holds another job's spins.
BLOCK_ALIGN = 64

@dataclass(frozen=True)
class BlockSlice:
    """Column range of one member model inside the union.

    ``start:stop`` are the member's real spins; ``stop:padded_stop`` are
    its isolated padding spins (coupling-free, field-free, never
    proposed, pinned to +1).
    """

    start: int
    stop: int
    padded_stop: int

    @property
    def num_spins(self) -> int:
        """Real (unpadded) spins of the member."""
        return self.stop - self.start


@dataclass(frozen=True)
class BlockStack:
    """A block-diagonal union model plus the member block geometry."""

    model: SparseIsingModel
    blocks: tuple[BlockSlice, ...]

    @property
    def num_members(self) -> int:
        """Number of stacked member models."""
        return len(self.blocks)


def stack_models(models, align: int = BLOCK_ALIGN) -> BlockStack:
    """Stack member models into one block-diagonal union.

    Members may be dense :class:`~repro.ising.model.IsingModel` (converted
    through ``SparseIsingModel.from_ising``), sparse, or packed.  The
    union is sparse CSR; when *every* member is a
    :class:`~repro.ising.packed.PackedIsingModel` with one shared scale
    the union is promoted back to packed (the block-diagonal of ±c
    matrices is itself a ±c matrix), so a stack of packed jobs runs the
    popcount/XOR kernels.  Fields concatenate (zero over padding); member
    ``offset`` values are deliberately *not* merged — the stacked runner
    adds each job's own offset to its energy column.
    """
    members = [
        m if isinstance(m, SparseIsingModel) else SparseIsingModel.from_ising(m)
        for m in models
    ]
    if not members:
        raise ValueError("stack_models needs at least one member model")
    align = check_count("align", align)
    blocks = []
    pos = 0
    for m in members:
        n = m.num_spins
        padded = pos + -(-n // align) * align
        blocks.append(BlockSlice(start=pos, stop=pos + n, padded_stop=padded))
        pos = padded
    total = pos

    count_parts = []
    index_parts = []
    data_parts = []
    has_fields = any(m.has_fields for m in members)
    fields = np.zeros(total, dtype=np.float64) if has_fields else None
    for m, b in zip(members, blocks):
        indptr, indices, data = m.csr_arrays()
        count_parts.append(np.diff(indptr))
        pad_rows = b.padded_stop - b.stop
        if pad_rows:
            count_parts.append(np.zeros(pad_rows, dtype=np.intp))
        index_parts.append(indices + b.start)
        data_parts.append(data)
        if fields is not None:
            fields[b.start:b.stop] = m.h
    union_indptr = np.zeros(total + 1, dtype=np.intp)
    np.cumsum(np.concatenate(count_parts), out=union_indptr[1:])
    csr = (union_indptr, np.concatenate(index_parts), np.concatenate(data_parts))

    name = f"blockstack-{len(members)}x"
    scales = {m.scale for m in members if isinstance(m, PackedIsingModel)}
    model = None
    if len(scales) == 1 and all(isinstance(m, PackedIsingModel) for m in members):
        try:
            model = PackedIsingModel(*csr, fields, 0.0, name)
        except ValueError:
            # Degenerate members (e.g. coupling-free) can break packed
            # eligibility of the union; the sparse union is always valid.
            pass
    if model is None:
        model = SparseIsingModel(*csr, fields, 0.0, name)
    return BlockStack(model=model, blocks=tuple(blocks))


def compile_lane(
    model,
    method: str = "insitu",
    iterations: int = 1000,
    replicas: int = 1,
    flips_per_iteration: int = 1,
    seed=None,
    initial=None,
) -> StackedLane:
    """Freeze one job's solo RNG draws into a :class:`StackedLane`.

    Builds the solo batch engine on ``ensure_rng(seed)`` and returns its
    own draw (:meth:`~repro.core.batch._BatchEngine._draw`: schedule,
    initial configuration, proposal tensor, accept uniforms — the order
    its ``run`` consumes them in), so a lane executed through
    :func:`run_stacked` reproduces ``solve_ising(model, method,
    iterations, seed=seed, replicas=replicas,
    flips_per_iteration=flips_per_iteration)`` bit-for-bit.
    ``initial`` follows the engine contract (shape ``(n,)`` or ``(R, n)``,
    entries ±1; validated with the engine's own message).
    """
    check_choice("method", method, PACK_METHODS)
    iterations = check_count(
        "iterations", iterations,
        hint="the annealers need at least one proposal/accept step",
    )
    replicas = check_count(
        "replicas", replicas,
        hint="each replica is one independent trajectory",
    )
    flips_per_iteration = check_count(
        "flips_per_iteration", flips_per_iteration
    )
    engine = _BATCH_ENGINES[method](
        model, replicas=replicas,
        flips_per_iteration=flips_per_iteration, seed=seed,
    )
    return engine._draw(iterations, initial)


def run_stacked(lanes) -> list[BatchAnnealResult]:
    """Advance every lane simultaneously on the block-diagonal union.

    All lanes must share ``(method, iterations, replicas,
    flips_per_iteration)`` — the serve scheduler groups jobs by exactly
    this key.  Returns one :class:`~repro.core.batch.BatchAnnealResult`
    per lane, bit-identical to the lane's solo solve for every backend
    whose solo kernels agree with the union's sparse/packed kernels
    (always true sparse→sparse and packed→packed; dense members require
    exactly-representable dyadic couplings, the usual backend contract).
    """
    lanes = list(lanes)
    if not lanes:
        raise ValueError("run_stacked needs at least one lane")
    first = lanes[0]
    key = (
        first.method, first.iterations, first.replicas,
        first.flips_per_iteration,
    )
    for lane in lanes[1:]:
        lane_key = (
            lane.method, lane.iterations, lane.replicas,
            lane.flips_per_iteration,
        )
        if lane_key != key:
            raise ValueError(
                "stacked lanes must share (method, iterations, replicas, "
                f"flips_per_iteration); got {lane_key} alongside {key} — "
                "group jobs by these knobs before packing"
            )
    stack = stack_models([lane.model for lane in lanes])
    starts = np.array([b.start for b in stack.blocks], dtype=np.intp)
    return _run_lanes(stack.model, lanes, starts=starts)


__all__ = [
    "BLOCK_ALIGN",
    "PACK_METHODS",
    "BlockSlice",
    "BlockStack",
    "StackedLane",
    "compile_lane",
    "run_stacked",
    "stack_models",
]
