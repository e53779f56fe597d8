"""Multilevel min-cut partitioning sized to the crossbar tile grid.

PR 3's RCM pass closes the *banded* case: when an instance has a hidden
band, a bandwidth-reducing relabelling compacts its tile program.  But
community-structured (clustered) graphs have no good bandwidth ordering —
the community interconnect is an expander, and minimising ``max |i − j|``
is the wrong objective when the real hardware cost is the number of active
``tile_size``-square blocks the machine must program.  This module attacks
that count directly: partition the coupling graph into
``k = ceil(n / tile_size)`` balanced blocks of minimum edge cut, then lay
the blocks out contiguously so every block occupies exactly one tile row
band.  Intra-block couplings land on the ``k`` diagonal tiles; only
cut edges light additional tiles, so a min-cut partition is a
min-active-tile layout for clustered instances.

The partitioner is the classic multilevel scheme, pure numpy over the
:class:`~repro.ising.sparse.SparseIsingModel` CSR arrays (the dense
``(n, n)`` matrix is never formed):

1. **Coarsening** — heavy-edge matching: visit vertices in ascending
   degree order, match each with its unmatched neighbour of largest
   coupling magnitude (vertex-weight capped so coarse vertices stay
   packable), contract matched pairs and aggregate parallel edges, until
   the graph is a small multiple of ``k`` or shrinkage stalls.
2. **Initial partition** — greedy graph growing on the coarsest graph:
   grow each block from a minimum-degree seed, repeatedly absorbing the
   unassigned vertex with the strongest connection to the growing block,
   until the block reaches its weight target.
3. **Uncoarsening + refinement** — project the assignment back one level
   at a time and run boundary Fiduccia–Mattheyses passes: every boundary
   vertex's best move enters a max-gain bucket queue; moves are applied
   highest-gain first (negative gains allowed, so the pass can climb out
   of local minima), each mover is locked and its neighbours' gains are
   recomputed, and the pass rolls back to the best prefix seen.  At the
   finest level a rebalancing sweep restores the *exact* block sizes the
   tile grid requires.

Gains are scored in batches: the vertices requeued after a move (or the
whole boundary) are scored against one state in one CSR gather and one
array pass, so numpy's per-call overhead is paid per batch, not per
vertex and target.  The block-pair counts are a dense symmetric
``(k, k)`` matrix: ``k²`` integers, 0.3 MB at 51,200 spins / tile 256.

The result is a :class:`Partitioning` (block assignment, edge cut,
balance, exact active-tile count) whose :meth:`~Partitioning.
to_permutation` exports a block-contiguous
:class:`~repro.core.reorder.Permutation` — fully compatible with PR 3's
transparency contract, so partitioned solves are bit-identical in the
caller's index space for exactly-representable couplings.

Everything is deterministic: no RNG is consumed anywhere, so the
``reorder="auto"`` scorer (exact active-tile count, RCM vs partition)
picks the same winner on every run.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.reorder import Permutation, _bandwidth_of
from repro.utils.validation import check_count, check_integer_array

#: Stop coarsening once the graph has at most this many vertices per block.
COARSEN_VERTICES_PER_BLOCK = 8

#: Never coarsen below this many vertices regardless of the block count.
COARSEN_FLOOR = 64

#: Abandon coarsening when a level shrinks the graph by less than this.
COARSEN_STALL_RATIO = 0.95

#: Boundary-FM passes per uncoarsening level (each stops early when a
#: pass yields no gain).
REFINE_PASSES = 3

#: FM moves allowed past the best prefix before a pass gives up.
FM_STALL_LIMIT = 48


# ----------------------------------------------------------------------
# Weighted adjacency extraction
# ----------------------------------------------------------------------
def _weighted_adjacency(
    model,
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """``(n, indptr, indices, weights, structure)`` of the couplings.

    The adjacency weights are ``|J_ij|`` with the diagonal dropped — the
    cut objective cares about the presence and magnitude of a coupling,
    not its sign, and a self-coupling always lands on its own block's
    diagonal tile whatever the partition.  ``structure`` is the full
    stored-entry ``(rows, cols)`` set (diagonal included) for the
    exported permutation's exact tile-count prediction — extracted in the
    same single pass.  Sparse models hand over CSR directly; dense models
    scan ``np.nonzero``.
    """
    csr = getattr(model, "csr_arrays", None)
    if csr is not None:
        indptr, indices, data = csr()
        n = model.num_spins
        rows = np.repeat(np.arange(n, dtype=np.intp), np.diff(indptr))
    else:
        J = getattr(model, "J", None)
        if J is None:
            raise TypeError(
                f"expected an IsingModel or SparseIsingModel, got "
                f"{type(model).__name__}"
            )
        n = J.shape[0]
        rows, indices = np.nonzero(J)
        rows = rows.astype(np.intp)
        indices = indices.astype(np.intp)
        data = J[rows, indices]
    structure = (rows, indices)
    off = rows != indices
    rows, cols, w = rows[off], indices[off], np.abs(data[off])
    indptr = np.zeros(n + 1, dtype=np.intp)
    indptr[1:] = np.cumsum(np.bincount(rows, minlength=n))
    return n, indptr, cols, w, structure


# ----------------------------------------------------------------------
# Coarsening: heavy-edge matching
# ----------------------------------------------------------------------
def _heavy_edge_matching(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    vweights: np.ndarray,
    cap: int,
) -> np.ndarray:
    """Coarse-vertex map from one greedy heavy-edge matching sweep.

    Vertices are visited in ascending degree order (low-degree vertices
    have the fewest matching options, so they choose first); each
    unmatched vertex matches its unmatched neighbour of maximum coupling
    magnitude whose combined vertex weight stays within ``cap``.  Returns
    ``cmap`` with ``cmap[v]`` the coarse id of ``v`` — matched pairs share
    an id, ids are dense and ordered by each group's minimum member.
    """
    n = vweights.shape[0]
    match = np.full(n, -1, dtype=np.intp)
    order = np.argsort(np.diff(indptr), kind="stable")
    for v in order:
        if match[v] >= 0:
            continue
        lo, hi = indptr[v], indptr[v + 1]
        nbrs = indices[lo:hi]
        ok = (match[nbrs] < 0) & (nbrs != v) & (
            vweights[nbrs] + vweights[v] <= cap
        )
        if not ok.any():
            match[v] = v
            continue
        cand = nbrs[ok]
        # Heaviest edge first, smallest vertex id as the tie-break.
        pick = cand[np.lexsort((cand, -weights[lo:hi][ok]))[0]]
        match[v] = pick
        match[pick] = v
    rep = np.minimum(np.arange(n, dtype=np.intp), match)
    reps = np.unique(rep)
    cmap = np.searchsorted(reps, rep).astype(np.intp)
    return cmap


def _contract(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    vweights: np.ndarray,
    cmap: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Build the coarse graph induced by ``cmap`` (parallel edges summed)."""
    nc = int(cmap.max()) + 1 if cmap.size else 0
    n = vweights.shape[0]
    rows = np.repeat(np.arange(n, dtype=np.intp), np.diff(indptr))
    cu, cv = cmap[rows], cmap[indices]
    keep = cu != cv  # contracted pairs' internal edges disappear
    key = cu[keep] * nc + cv[keep]
    uniq, inv = np.unique(key, return_inverse=True)
    w = np.bincount(inv, weights=weights[keep], minlength=uniq.size)
    c_rows = (uniq // nc).astype(np.intp)
    c_cols = (uniq % nc).astype(np.intp)
    c_indptr = np.zeros(nc + 1, dtype=np.intp)
    c_indptr[1:] = np.cumsum(np.bincount(c_rows, minlength=nc))
    c_vweights = np.bincount(cmap, weights=vweights, minlength=nc).astype(
        np.intp
    )
    return c_indptr, c_cols, w, c_vweights


# ----------------------------------------------------------------------
# Initial partition: greedy graph growing
# ----------------------------------------------------------------------
def _greedy_grow(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    vweights: np.ndarray,
    targets: np.ndarray,
) -> np.ndarray:
    """Grow ``len(targets)`` blocks to their weight targets, greedily.

    The first block starts from the unassigned vertex of minimum weighted
    degree; every block repeatedly absorbs the unassigned vertex with the
    largest total connection to everything assigned so far (smallest
    index on ties; a fresh minimum-degree seed when the frontier is empty
    — disconnected components).  The frontier is *not* reset between
    blocks, so the growth is one continuous sweep: a cluster entered by
    block ``b`` is finished by blocks ``b+1, b+2, …`` before the sweep
    moves on, keeping every cluster in a few consecutive blocks instead
    of being scavenged piecemeal by far-apart ones.  A block stops
    growing once its weight reaches its target; the final block absorbs
    the remainder.
    """
    n = vweights.shape[0]
    k = targets.shape[0]
    assign = np.full(n, -1, dtype=np.intp)
    wdegree = np.zeros(n, dtype=np.float64)
    np.add.at(
        wdegree, np.repeat(np.arange(n, dtype=np.intp), np.diff(indptr)), weights
    )
    conn = np.zeros(n, dtype=np.float64)
    unassigned = np.ones(n, dtype=bool)
    left = n
    # Candidate selection runs off a lazy max-heap keyed by (−conn, index):
    # conn only ever grows during the sweep, so an entry is current exactly
    # when its stored value matches conn[v], and every update pushes a
    # fresh entry — O(nnz log n) overall instead of an O(n) argmax per
    # absorbed vertex.  The (−conn, v) ordering reproduces the argmax
    # tie-break (largest connection, smallest index) exactly.
    heap: list[tuple[float, int]] = []
    seed_order = np.argsort(wdegree, kind="stable")
    seed_ptr = 0
    for b in range(k - 1):
        if left == 0:
            break
        grown = 0
        while grown < targets[b] and left > 0:
            remaining = targets[b] - grown
            v = -1
            stash: list[tuple[float, int]] = []
            while heap:
                negc, u = heap[0]
                if not unassigned[u] or -negc != conn[u]:
                    heapq.heappop(heap)  # stale entry
                    continue
                if vweights[u] > remaining:
                    # Strongest-connected candidate that doesn't fit the
                    # block — set it aside; it stays eligible later.
                    stash.append(heapq.heappop(heap))
                    continue
                v = u
                heapq.heappop(heap)
                break
            if v < 0 and stash:
                # Nothing on the frontier fits: overshoot with the
                # strongest-connected live candidate (first stashed).
                v = stash.pop(0)[1]
            for entry in stash:
                heapq.heappush(heap, entry)
            if v < 0:
                # Frontier empty (seed, or a fresh component): the
                # unassigned vertex of minimum weighted degree.
                while seed_ptr < n and not unassigned[seed_order[seed_ptr]]:
                    seed_ptr += 1
                v = int(seed_order[seed_ptr])
            assign[v] = b
            unassigned[v] = False
            left -= 1
            grown += int(vweights[v])
            lo, hi = indptr[v], indptr[v + 1]
            nbr = indices[lo:hi]
            np.add.at(conn, nbr, weights[lo:hi])
            for u in nbr:
                if unassigned[u]:
                    heapq.heappush(heap, (-conn[u], int(u)))
    assign[unassigned] = k - 1
    return assign


# ----------------------------------------------------------------------
# Refinement: boundary FM with gain buckets
# ----------------------------------------------------------------------
class _GainBuckets:
    """Max-gain bucket queue with lazy invalidation.

    Entries are ``(vertex, target_block, stamp)`` grouped into buckets by
    exact gain value; a heap over the bucket keys serves the maximum-gain
    bucket in O(log #gains).  Stale entries (vertex re-stamped or locked
    since push) are discarded by the caller on pop — the classic FM
    bucket structure, generalised to float gains.
    """

    def __init__(self) -> None:
        self._buckets: dict[float, list[tuple[int, int, int]]] = {}
        self._heap: list[float] = []

    def push(self, gain: float, vertex: int, target: int, stamp: int) -> None:
        bucket = self._buckets.get(gain)
        if bucket is None:
            self._buckets[gain] = bucket = []
            heapq.heappush(self._heap, -gain)
        bucket.append((vertex, target, stamp))

    def pop(self) -> tuple[float, int, int, int] | None:
        """Highest-gain entry (LIFO within a bucket), or ``None``."""
        while self._heap:
            gain = -self._heap[0]
            bucket = self._buckets.get(gain)
            if bucket:
                return (gain,) + bucket.pop()
            heapq.heappop(self._heap)
            self._buckets.pop(gain, None)
        return None

    def push_moves(
        self, stamp: np.ndarray, vertices: np.ndarray, gains: np.ndarray, targets: np.ndarray
    ) -> None:
        """Re-stamp each vertex in the caller's order and queue its move
        (target ≥ 0); the order fixes the LIFO order within a bucket."""
        for v, gain, target in zip(vertices.tolist(), gains.tolist(), targets.tolist()):
            stamp[v] += 1
            if target >= 0:
                self.push(gain, v, target, int(stamp[v]))


def _pair_counts(
    indptr: np.ndarray,
    indices: np.ndarray,
    assign: np.ndarray,
    k: int,
) -> np.ndarray:
    """Coupling counts per block pair — the active-tile bookkeeping.

    ``M[a, b]`` counts the stored adjacency entries (both triangles) from
    block ``a`` to block ``b``: off the diagonal that is the number of
    couplings between the two blocks, on it twice a block's internal
    count.  A pair is an active tile pair exactly while its count is
    positive.  The matrix is dense and symmetric, ``k²`` integers — 0.3 MB
    at 51,200 spins / tile 256 (``k = 200``) — so scoring and applying a
    move are array indexing, never a walk over pairs.
    """
    n = assign.shape[0]
    rows = np.repeat(np.arange(n, dtype=np.intp), np.diff(indptr))
    pairs = assign[rows] * k + assign[indices]
    return np.bincount(pairs, minlength=k * k).reshape(k, k)


def _apply_move(
    v: int,
    target: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    assign: np.ndarray,
    M: np.ndarray,
) -> None:
    """Reassign ``v`` to ``target`` and keep the pair counts exact.

    v's couplings, counted by neighbour block, leave row and column
    ``own`` and join row and column ``target`` (the diagonal takes both
    halves, matching its doubled count).  Applying the reverse move (in
    reverse order) restores ``M`` bit for bit, which is what the FM
    rollback relies on.
    """
    own = int(assign[v])
    per_block = np.bincount(
        assign[indices[indptr[v]:indptr[v + 1]]], minlength=M.shape[0]
    )
    M[own] -= per_block
    M[:, own] -= per_block
    M[target] += per_block
    M[:, target] += per_block
    assign[v] = target


#: Secondary-objective weight: the edge-cut tie-break is squashed into
#: (−0.5, 0.5) so it can order moves of equal tile gain but never
#: override a tile-count difference.
_TIE_BREAK_SCALE = 0.5


def _neighbour_blocks(
    U: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    assign: np.ndarray,
    k: int,
) -> tuple[np.ndarray, ...]:
    """``(keys, vertex, block, count, weight_sum)`` of U's neighbourhoods.

    One CSR gather over all of ``U``: an entry per (vertex, neighbour
    block), sorted by key ``g·k + block`` (``g`` the vertex's position in
    ``U``), plus a zero-count entry for each vertex's own block when no
    neighbour shares it — so every vertex has exactly one own-block entry.
    Weight sums accumulate in CSR order, exactly as a per-vertex
    ``bincount`` would.
    """
    m = U.shape[0]
    lo = indptr[U]
    lens = indptr[U + 1] - lo
    pos = np.arange(lens.sum()) + np.repeat(lo - (np.cumsum(lens) - lens), lens)
    keys, inv = np.unique(
        np.concatenate([
            np.repeat(np.arange(m), lens) * k + assign[indices[pos]],
            np.arange(m) * k + assign[U],
        ]),
        return_inverse=True,
    )
    inv = inv[:pos.shape[0]]
    count = np.bincount(inv, minlength=keys.shape[0])
    wsum = np.bincount(inv, weights=weights[pos], minlength=keys.shape[0])
    return (keys, *np.divmod(keys, k), count, wsum)


def _move_gains(
    U: np.ndarray,
    cand: np.ndarray,
    target: np.ndarray,
    blocks: tuple[np.ndarray, ...],
    assign: np.ndarray,
    M: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``(tiles, tie)`` of moving ``U[cand[i]]`` into block ``target[i]``.

    ``blocks`` is :func:`_neighbour_blocks` of ``U``.  The move shifts
    each coupling from an ``(own, D)`` pair to a ``(target, D)`` pair;
    ``tiles`` counts tile slots emptied minus slots filled (off-diagonal
    pairs weigh 2 — both triangles are programmed).  With ``c_D`` the
    vertex's couplings into block ``D``: ``(own, D)`` empties (+2) when
    ``M[own, D] == c_D`` and ``(target, D)`` fills (−2) when
    ``M[target, D] == 0`` (``D ∉ {own, target}``); ``(own, own)``
    empties (+1), ``(target, target)`` fills (−1); and ``(own, target)``
    loses ``c_target`` and gains ``c_own``.  Counting fills over *all*
    the vertex's blocks (its own is always listed) adds a −2 exactly when
    ``(own, target)`` starts empty, which folds that slot into one +2
    when it ends empty.  ``tie`` is the squashed edge-cut improvement.
    """
    keys, vertex, block, count, wsum = blocks
    k = M.shape[0]
    own = assign[U]
    own_e = own[vertex]
    is_own = block == own_e
    lost = ~is_own & (M[own_e, block] == count)
    c_own, w_own = count[is_own], wsum[is_own]
    base = 2 * np.bincount(vertex[lost], minlength=U.shape[0]) + (
        (c_own > 0) & (M[own, own] == 2 * c_own)
    )

    query = cand * k + target
    at = np.minimum(np.searchsorted(keys, query), keys.shape[0] - 1)
    hit = keys[at] == query
    c_t = np.where(hit, count[at], 0)
    before = M[own[cand], target]
    # Each candidate against every block its vertex touches (own included).
    start = np.searchsorted(keys, np.arange(U.shape[0] + 1) * k)
    size = (start[1:] - start[:-1])[cand]
    seg = np.cumsum(size) - size
    D = block[np.arange(size.sum()) + np.repeat(start[cand] - seg, size)]
    absent = np.add.reduceat(M[np.repeat(target, size), D] == 0, seg)
    tiles = (
        base[cand]
        + 2 * ((before + c_own[cand] == c_t) - absent - (hit & (before == c_t)))
        + (hit & (M[target, target] == 0))
    )
    wgain = np.where(hit, wsum[at], 0.0) - w_own[cand]
    return tiles, _TIE_BREAK_SCALE * (wgain / (1.0 + np.abs(wgain)))


def _best_moves(
    U: np.ndarray,
    need: np.ndarray,
    room: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    assign: np.ndarray,
    M: np.ndarray,
    fallback: bool = False,
    forced: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(tiles, tie, target)`` of each vertex's best feasible move.

    Every vertex of ``U`` is scored against the same state in one pass
    (``target`` −1: no move).  The primary gain is the *active-tile*
    reduction (the tiled machine's true cost); the squashed edge-cut
    improvement breaks ties, so of two tile-neutral moves the one that
    concentrates coupling weight wins (those are the moves that later
    kill a pair).  Only boundary moves are produced — the target must
    hold at least one of the vertex's neighbours — and only into blocks
    whose ``room`` admits the vertex's ``need``; the lowest block id wins
    residual ties.  With ``fallback`` a vertex without a feasible
    neighbour block is offered the lowest-id block with room instead, so
    the exact-size drain always progresses.  A vertex with
    ``forced >= 0`` is scored for exactly that move.
    """
    m = U.shape[0]
    tiles = np.zeros(m, dtype=np.int64)
    tie = np.zeros(m)
    best = np.full(m, -1, dtype=np.intp)
    if m == 0:
        return tiles, tie, best
    blocks = _neighbour_blocks(U, indptr, indices, weights, assign, M.shape[0])
    vertex, block = blocks[1], blocks[2]
    ok = (block != assign[U][vertex]) & (need[vertex] <= room[block])
    if forced is None:
        cand, target = vertex[ok], block[ok]
    else:
        ok &= forced[vertex] < 0
        pinned = np.flatnonzero(forced >= 0)
        cand = np.concatenate([vertex[ok], pinned])
        target = np.concatenate([block[ok], forced[pinned]])
    if fallback:
        lone = np.flatnonzero(np.bincount(cand, minlength=m) == 0)
        spare = np.flatnonzero(room > 0)
        if lone.size and spare.size:
            cand = np.concatenate([cand, lone])
            target = np.concatenate([target, np.full(lone.size, spare[0])])
    if cand.size == 0:
        return tiles, tie, best
    c_tiles, c_tie = _move_gains(U, cand, target, blocks, assign, M)
    order = np.lexsort((target, -(c_tiles + c_tie), cand))
    first = order[np.concatenate([[True], cand[order[1:]] != cand[order[:-1]]])]
    tiles[cand[first]] = c_tiles[first]
    tie[cand[first]] = c_tie[first]
    best[cand[first]] = target[first]
    return tiles, tie, best


def _fm_pass(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    vweights: np.ndarray,
    assign: np.ndarray,
    block_weight: np.ndarray,
    caps: np.ndarray,
    M: np.ndarray,
) -> float:
    """One boundary Fiduccia–Mattheyses pass; returns the realised gain.

    Applies moves highest-gain first (negative gains allowed, so the pass
    can climb through tile-neutral territory), locking each mover and
    re-queueing its neighbours, and rolls ``assign`` — and the pair
    counts ``M`` — back to the best prefix seen.  Block weights never
    exceed ``caps``.
    """
    n = assign.shape[0]
    stamp = np.zeros(n, dtype=np.int64)
    locked = np.zeros(n, dtype=bool)
    buckets = _GainBuckets()

    def score(
        U: np.ndarray, forced: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _best_moves(
            U, vweights[U], caps - block_weight, indptr, indices, weights,
            assign, M, forced=forced,
        )

    # Only boundary vertices can move; find them in one vectorised sweep
    # instead of probing all n (interior vertices have no move).
    rows = np.repeat(np.arange(n, dtype=np.intp), np.diff(indptr))
    U = np.unique(rows[assign[rows] != assign[indices]])
    move_tiles, move_tie, targets = score(U)
    buckets.push_moves(stamp, U, move_tiles + move_tie, targets)
    moves: list[tuple[int, int, int]] = []
    # Prefix quality is tracked lexicographically — tile gain first, the
    # edge-cut tie-break strictly second — so a run of tie-break-positive
    # moves can never outvote a net tile loss into the kept prefix.
    tiles = 0
    tie = 0.0
    best_tiles = 0
    best_tie = 0.0
    best_len = 0
    while True:
        entry = buckets.pop()
        if entry is None:
            break
        _, v, target, st = entry
        if locked[v] or st != stamp[v]:
            continue
        if block_weight[target] + vweights[v] > caps[target]:
            # Target filled up since the push; the recomputed best move is
            # feasibility-checked, so this cannot spin on a full block.
            U = np.array([v])
            move_tiles, move_tie, targets = score(U)
            buckets.push_moves(stamp, U, move_tiles + move_tie, targets)
            continue
        frm = int(assign[v])
        _apply_move(v, target, indptr, indices, assign, M)
        block_weight[frm] -= vweights[v]
        block_weight[target] += vweights[v]
        locked[v] = True
        moves.append((v, frm, target))
        # The mover's neighbours are rescored in one batch; the mover rides
        # along forced back to ``frm``.  The queued gain orders the pops
        # but may be stale (pair counts shift under moves of non-adjacent
        # vertices), so the ledger books minus that move-back gain —
        # exactly the realised delta — keeping the rollback invariant exact.
        nbrs = indices[indptr[v]:indptr[v + 1]]
        U = np.concatenate([[v], nbrs[~locked[nbrs]]])
        forced = np.full(U.shape[0], -1, dtype=np.intp)
        forced[0] = frm
        move_tiles, move_tie, targets = score(U, forced)
        tiles -= int(move_tiles[0])
        tie -= float(move_tie[0])
        if tiles > best_tiles or (tiles == best_tiles and tie > best_tie):
            best_tiles = tiles
            best_tie = tie
            best_len = len(moves)
        if len(moves) - best_len > FM_STALL_LIMIT:
            break
        buckets.push_moves(
            stamp, U[1:], move_tiles[1:] + move_tie[1:], targets[1:]
        )
    # Undo in reverse order so each reverse move sees the assignment state
    # it was originally applied under — that makes the pair-count rollback
    # exact.
    for v, frm, _ in reversed(moves[best_len:]):
        block_weight[assign[v]] -= vweights[v]
        block_weight[frm] += vweights[v]
        _apply_move(v, frm, indptr, indices, assign, M)
    return best_tiles + best_tie


def _rebalance_exact(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    assign: np.ndarray,
    targets: np.ndarray,
    M: np.ndarray,
) -> None:
    """Restore the exact block sizes the tile grid requires (finest level).

    Drains over-full blocks into under-full ones, always applying the
    least-damaging move first — the same tile-delta gain the FM pass
    maximises, served from the same gain buckets, so a community whose
    blocks ended slightly over target slides its surplus into its *own*
    under-full partner block instead of scattering it across the grid.
    Only vertices of over-full blocks move, and only into under-full
    blocks (the lowest-id one when none touches the vertex).  Every move
    shrinks the total overflow by one, so the drain terminates with
    ``sizes == targets`` exactly.
    """
    k = targets.shape[0]
    sizes = np.bincount(assign, minlength=k)
    n = assign.shape[0]
    stamp = np.zeros(n, dtype=np.int64)
    buckets = _GainBuckets()

    def requeue(U: np.ndarray) -> None:
        gains = np.zeros(U.shape[0])
        best = np.full(U.shape[0], -1, dtype=np.intp)
        over = sizes[assign[U]] > targets[assign[U]]
        tiles, tie, best[over] = _best_moves(
            U[over], np.ones(int(over.sum()), dtype=np.intp), targets - sizes,
            indptr, indices, weights, assign, M, fallback=True,
        )
        gains[over] = tiles + tie
        buckets.push_moves(stamp, U, gains, best)

    # Each round drains its queue empty, so one queue serves every round.
    while int(np.sum(np.maximum(sizes - targets, 0))) > 0:
        moved = False
        requeue(np.flatnonzero(sizes[assign] > targets[assign]))
        while True:
            entry = buckets.pop()
            if entry is None:
                break
            _, v, target, st = entry
            if st != stamp[v]:
                continue
            own = int(assign[v])
            if sizes[own] <= targets[own] or sizes[target] >= targets[target]:
                # The world changed since the push — requeue afresh.
                requeue(np.array([v]))
                continue
            _apply_move(v, target, indptr, indices, assign, M)
            sizes[own] -= 1
            sizes[target] += 1
            moved = True
            requeue(indices[indptr[v]:indptr[v + 1]])
        if not moved:  # pragma: no cover - defensive; a move always exists
            break


# ----------------------------------------------------------------------
# The Partitioning object
# ----------------------------------------------------------------------
class Partitioning:
    """A balanced block assignment of the spins, sized to the tile grid.

    Parameters
    ----------
    assignment:
        Length-``n`` integer array mapping spin → block id in
        ``[0, num_blocks)`` (fractional or bool ids are rejected).
    tile_size:
        Tile side the partition is sized to; ``num_blocks`` is
        ``ceil(n / tile_size)`` and every block except the last holds
        exactly ``tile_size`` spins.
    edge_cut:
        Total ``|J_ij|`` over couplings crossing blocks (each undirected
        pair once).
    structure:
        ``(rows, cols)`` arrays of the stored coupling entries in the
        original labelling (diagonal included) — carried into the
        exported permutation for exact tile-count prediction.
    """

    def __init__(
        self,
        assignment: np.ndarray,
        tile_size: int,
        edge_cut: float,
        structure: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        assignment = check_integer_array("assignment", assignment)
        if assignment.ndim != 1 or assignment.size == 0:
            raise ValueError("assignment must be a non-empty 1-D array")
        self.tile_size = check_count(
            "tile_size", tile_size,
            hint="the partition is sized to the tile grid",
        )
        n = assignment.shape[0]
        self.num_blocks = -(-n // self.tile_size)
        if assignment.min() < 0 or assignment.max() >= self.num_blocks:
            raise ValueError(
                f"block ids must lie in [0, {self.num_blocks})"
            )
        self.assignment = assignment
        self.edge_cut = float(edge_cut)
        self._structure = structure
        self._permutation: Permutation | None = None

    @property
    def n(self) -> int:
        """Number of spins partitioned."""
        return self.assignment.shape[0]

    def block_sizes(self) -> np.ndarray:
        """Spins per block, length ``num_blocks``."""
        return np.bincount(self.assignment, minlength=self.num_blocks)

    def block_targets(self) -> np.ndarray:
        """The tile-aligned size every block must hold exactly."""
        targets = np.full(self.num_blocks, self.tile_size, dtype=np.intp)
        targets[-1] = self.n - (self.num_blocks - 1) * self.tile_size
        return targets

    @property
    def balance(self) -> float:
        """Largest block size over its target (1.0 = perfectly balanced)."""
        return float(np.max(self.block_sizes() / self.block_targets()))

    @property
    def is_tile_aligned(self) -> bool:
        """Whether every block holds exactly its tile-aligned target."""
        return bool(np.array_equal(self.block_sizes(), self.block_targets()))

    def to_permutation(self) -> Permutation:
        """The block-contiguous layout: block ``b`` occupies positions
        ``[b·tile_size, b·tile_size + size_b)``.

        Spins keep their original relative order within a block, so the
        map is deterministic.  The returned
        :class:`~repro.core.reorder.Permutation` carries the coupling
        structure, making :meth:`Permutation.estimated_active_tiles`
        exact, and obeys the same transparency contract as every other
        reordering (solves stay bit-identical in the caller's index
        space for exactly-representable couplings).
        """
        if self._permutation is not None:
            return self._permutation
        if not self.is_tile_aligned:
            raise ValueError(
                "partition blocks are not tile-aligned; sizes "
                f"{self.block_sizes().tolist()} vs targets "
                f"{self.block_targets().tolist()}"
            )
        order = np.argsort(self.assignment, kind="stable")
        forward = np.empty(self.n, dtype=np.intp)
        forward[order] = np.arange(self.n, dtype=np.intp)
        bw_before = bw_after = None
        if self._structure is not None:
            rows, cols = self._structure
            bw_before = _bandwidth_of(rows, cols)
            bw_after = _bandwidth_of(forward[rows], forward[cols])
        self._permutation = Permutation(
            forward,
            bandwidth_before=bw_before,
            bandwidth_after=bw_after,
            structure=self._structure,
            strategy="partition",
        )
        return self._permutation

    def estimated_active_tiles(self, tile_size: int | None = None) -> int:
        """Tiles a :class:`TiledCrossbar` instantiates under this layout.

        Exact by the same construction as
        :meth:`Permutation.estimated_active_tiles` (both count the
        nonzero-block set of the stored entries); defaults to the tile
        size the partition was built for.
        """
        s = self.tile_size if tile_size is None else check_count(
            "tile_size", tile_size
        )
        return self.to_permutation().estimated_active_tiles(s)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Partitioning(n={self.n}, blocks={self.num_blocks}, "
            f"tile_size={self.tile_size}, edge_cut={self.edge_cut:g}, "
            f"balance={self.balance:.3f})"
        )


# ----------------------------------------------------------------------
# The multilevel driver
# ----------------------------------------------------------------------
def _edge_cut(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    assign: np.ndarray,
) -> float:
    """Total |J| over cut couplings (both triangles stored → halve)."""
    n = assign.shape[0]
    rows = np.repeat(np.arange(n, dtype=np.intp), np.diff(indptr))
    return float(weights[assign[rows] != assign[indices]].sum() / 2.0)


def partition_model(model, tile_size: int) -> Partitioning:
    """Multilevel min-cut partition of a coupling graph, tile-aligned.

    Runs the full coarsen → grow → refine pipeline described in the
    module docstring and returns a :class:`Partitioning` whose blocks
    hold exactly ``tile_size`` spins each (the last block takes the
    remainder).  Deterministic — repeated calls return the identical
    assignment.
    """
    s = check_count("tile_size", tile_size)
    n, indptr, indices, weights, structure = _weighted_adjacency(model)
    if n == 0:
        raise ValueError("model has no spins; nothing to partition")
    k = -(-n // s)
    if k <= 1:
        return Partitioning(
            np.zeros(n, dtype=np.intp), s,
            edge_cut=0.0, structure=structure,
        )
    targets = np.full(k, s, dtype=np.intp)
    targets[-1] = n - (k - 1) * s

    # --- coarsen -------------------------------------------------------
    levels: list[tuple[np.ndarray, ...]] = []
    cur = (indptr, indices, weights, np.ones(n, dtype=np.intp))
    goal = max(COARSEN_FLOOR, COARSEN_VERTICES_PER_BLOCK * k)
    # A tight weight cap (coarse vertices hold at most tile_size/32 fine
    # spins) keeps the coarse granularity fine enough for the growing
    # pass to tile cluster boundaries onto block targets exactly, instead
    # of leaking blob-sized remnants into far-away blocks (measured at
    # ~15-30% of the final tile count with an 8× coarser cap).
    cap = max(2, s // 32)
    while cur[3].shape[0] > goal:
        cmap = _heavy_edge_matching(*cur, cap=cap)
        nc = int(cmap.max()) + 1
        if nc > COARSEN_STALL_RATIO * cur[3].shape[0]:
            break
        levels.append(cur + (cmap,))
        cur = _contract(*cur, cmap=cmap)

    # --- initial partition on the coarsest graph -----------------------
    assign = _greedy_grow(*cur, targets=targets)

    # --- uncoarsen + refine --------------------------------------------
    chain = levels[::-1]
    for level in [None, *chain]:
        if level is not None:
            # Project onto the next finer graph: a fine vertex inherits
            # its coarse representative's block.
            fine_indptr, fine_indices, fine_weights, fine_vw, cmap = level
            assign = assign[cmap]
            cur = (fine_indptr, fine_indices, fine_weights, fine_vw)
        # The balance slack must admit moving this level's heaviest vertex,
        # or coarse-level refinement is a no-op; the excess is worked off
        # as the vertices get finer, and the finest level ends exact.
        slack = max(s // 16, 2 * int(cur[3].max()))
        caps = targets + slack
        block_weight = np.bincount(
            assign, weights=cur[3], minlength=k
        ).astype(np.intp)
        M = _pair_counts(cur[0], cur[1], assign, k)
        for _ in range(REFINE_PASSES):
            gained = _fm_pass(
                cur[0], cur[1], cur[2], cur[3], assign, block_weight, caps, M
            )
            if gained <= 0.0:
                break

    # --- exact tile alignment at the finest level ----------------------
    # M is the finest level's pair-count state after the last FM pass.
    _rebalance_exact(indptr, indices, weights, assign, targets, M)
    return Partitioning(
        assign, s,
        edge_cut=_edge_cut(indptr, indices, weights, assign),
        structure=structure,
    )


def partition_permutation(model, tile_size: int) -> Permutation:
    """The block-contiguous min-cut layout of ``model`` in one call.

    Convenience wrapper: :func:`partition_model` followed by
    :meth:`Partitioning.to_permutation` — what the ``reorder="partition"``
    knob resolves to.
    """
    return partition_model(model, tile_size).to_permutation()
