"""Unit and property tests for the multilevel min-cut partition subsystem.

The partitioner must produce *valid* tile-aligned partitions (exact block
sizes, bijective block-contiguous permutation), its active-tile estimate
must match what a :class:`TiledCrossbar` actually instantiates, every run
must be deterministic (the ``auto`` scorer relies on it), and on clustered
instances it must beat both the identity scatter and the bandwidth
objective.  Transparency (bit-identical solves) is pinned in
``tests/test_reorder.py`` alongside the other reordering passes; the
``reorder="auto"`` golden lives in ``tests/test_golden_regression.py``.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch import InSituCimAnnealer, TiledCrossbar
from repro.core import (
    Partitioning,
    count_active_tiles,
    partition_model,
    partition_permutation,
    rcm_permutation,
    reorder_permutation,
    solve_ising,
)
from repro.core.partition import _apply_move, _best_moves, _pair_counts
from repro.ising import (
    IsingModel,
    SparseIsingModel,
    build_instance,
    paper_instance_suite,
    parse_gset,
    planted_partition_maxcut,
)
from repro.utils.rng import ensure_rng

relaxed = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def dyadic_sparse_model(seed: int, with_fields: bool = False) -> SparseIsingModel:
    """Seeded random sparse model with exactly-representable couplings."""
    rng = ensure_rng(seed)
    n = int(rng.integers(6, 40))
    m = int(rng.integers(n, 3 * n))
    pairs = rng.choice(n * (n - 1) // 2, size=min(m, n * (n - 1) // 2), replace=False)
    rows, cols = np.triu_indices(n, k=1)
    r, c = rows[pairs], cols[pairs]
    vals = rng.integers(-8, 9, size=r.size) / 8.0
    keep = vals != 0
    h = rng.integers(-8, 9, size=n) / 8.0 if with_fields else None
    return SparseIsingModel.from_edges(
        n, r[keep], c[keep], vals[keep], h, offset=0.25, name=f"dyadic-{n}"
    )


def clustered_model(
    n: int = 3072, communities: int = 6, seed: int = 5
) -> SparseIsingModel:
    """Small planted-partition instance on the sparse backend."""
    problem, _ = planted_partition_maxcut(n, communities, seed=seed)
    model = problem.to_ising(backend="sparse")
    assert isinstance(model, SparseIsingModel)
    return model


# ----------------------------------------------------------------------
# Partition validity
# ----------------------------------------------------------------------
class TestPartitionValidity:
    @relaxed
    @given(seed=st.integers(0, 10_000), tile=st.sampled_from([2, 4, 8]))
    def test_blocks_are_tile_aligned(self, seed, tile):
        """Every block holds exactly ``tile_size`` spins (last: remainder)."""
        model = dyadic_sparse_model(seed)
        part = partition_model(model, tile)
        assert part.is_tile_aligned
        assert part.balance == 1.0
        assert part.num_blocks == -(-model.num_spins // tile)
        sizes = part.block_sizes()
        assert sizes.sum() == model.num_spins
        assert np.all(sizes[:-1] == tile)

    @relaxed
    @given(seed=st.integers(0, 10_000))
    def test_permutation_is_block_contiguous(self, seed):
        """Position ``forward[v] // tile`` is exactly v's block id."""
        model = dyadic_sparse_model(seed)
        part = partition_model(model, 4)
        perm = part.to_permutation()
        assert perm.strategy == "partition"
        assert np.array_equal(perm.forward // 4, part.assignment)

    @relaxed
    @given(seed=st.integers(0, 10_000))
    def test_estimate_matches_machine_exactly(self, seed):
        """``estimated_active_tiles`` equals ``TiledCrossbar.num_tiles``."""
        model = dyadic_sparse_model(seed)
        part = partition_model(model, 4)
        stored = model.permuted(part.to_permutation())
        assert (
            TiledCrossbar(stored, tile_size=4).num_tiles
            == part.estimated_active_tiles()
            == part.to_permutation().estimated_active_tiles(4)
        )

    def test_deterministic(self):
        """Repeated runs return the identical assignment (auto relies on it)."""
        model = clustered_model()
        a = partition_model(model, 64)
        b = partition_model(model, 64)
        assert np.array_equal(a.assignment, b.assignment)
        assert a.edge_cut == b.edge_cut

    def test_edge_cut_matches_direct_count(self):
        model = dyadic_sparse_model(42)
        part = partition_model(model, 4)
        indptr, indices, data = model.csr_arrays()
        rows = np.repeat(np.arange(model.num_spins), np.diff(indptr))
        a = part.assignment
        off = rows != indices
        direct = float(
            np.abs(data[off][a[rows[off]] != a[indices[off]]]).sum() / 2.0
        )
        assert part.edge_cut == direct

    def test_single_block_is_trivial(self):
        model = dyadic_sparse_model(7)
        part = partition_model(model, model.num_spins + 5)
        assert part.num_blocks == 1
        assert np.all(part.assignment == 0)
        assert part.edge_cut == 0.0
        assert part.to_permutation().is_identity

    def test_edgeless_model_partitions_cleanly(self):
        model = SparseIsingModel.from_edges(10, [0], [1], [0.0])  # dropped zero
        part = partition_model(model, 4)
        assert part.is_tile_aligned
        assert part.edge_cut == 0.0

    def test_dense_model_accepted(self):
        sparse = dyadic_sparse_model(11)
        dense = sparse.to_dense()
        assert isinstance(dense, IsingModel)
        assert np.array_equal(
            partition_model(dense, 4).assignment,
            partition_model(sparse, 4).assignment,
        )


# ----------------------------------------------------------------------
# Layout quality on clustered instances
# ----------------------------------------------------------------------
class TestClusteredQuality:
    def test_partition_beats_rcm_and_identity(self):
        """On an SBM, min-cut blocks beat both bandwidth and the scatter."""
        model = clustered_model()
        tile = 64
        part_tiles = partition_permutation(model, tile).estimated_active_tiles(tile)
        rcm_tiles = rcm_permutation(model).estimated_active_tiles(tile)
        identity_tiles = count_active_tiles(model, tile)
        assert part_tiles * 2 <= rcm_tiles
        assert part_tiles * 2 <= identity_tiles

    def test_auto_prefers_partition_on_clustered_instance(self):
        model = clustered_model()
        perm = reorder_permutation(model, "auto", tile_size=64)
        assert perm is not None
        assert perm.strategy == "partition"

    def test_machine_reports_partition_ordering(self):
        model = clustered_model(1024, 4, seed=9)
        machine = InSituCimAnnealer(
            model, tile_size=64, reorder="partition", seed=0
        )
        assert machine.permutation is not None
        assert machine.mapping.ordering == "partition"
        assert machine.crossbar.num_tiles == (
            machine.permutation.estimated_active_tiles(64)
        )


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
class TestPartitionValidation:
    def test_partition_requires_tile_size(self):
        model = dyadic_sparse_model(1)
        with pytest.raises(ValueError, match="tile_size"):
            reorder_permutation(model, "partition")
        with pytest.raises(ValueError, match="tile_size"):
            InSituCimAnnealer(model, reorder="partition", seed=0)
        with pytest.raises(ValueError, match="tile_size"):
            solve_ising(model, iterations=10, reorder="partition")

    @pytest.mark.parametrize("bad", [True, False, 0, -3, 2.5])
    def test_tile_size_validated_everywhere(self, bad):
        """``check_count`` guards every tile_size entry point.

        Booleans (``True`` would silently mean 1) and non-positive or
        fractional counts must fail loudly in the partitioner, the
        estimators, and the CSR block extraction alike.
        """
        model = dyadic_sparse_model(2)
        perm = rcm_permutation(model)
        for call in (
            lambda: partition_model(model, bad),
            lambda: partition_permutation(model, bad),
            lambda: perm.estimated_active_tiles(bad),
            lambda: count_active_tiles(model, bad),
            lambda: model.block_partition(bad),
            lambda: reorder_permutation(model, "auto", tile_size=bad),
            lambda: Partitioning(np.zeros(4, dtype=np.intp), bad, 0.0),
        ):
            with pytest.raises(ValueError, match="tile_size"):
                call()

    def test_misaligned_partitioning_rejects_permutation_export(self):
        bad = Partitioning(np.array([0, 0, 0, 1]), 2, edge_cut=0.0)
        assert not bad.is_tile_aligned
        with pytest.raises(ValueError, match="not tile-aligned"):
            bad.to_permutation()

    def test_assignment_range_checked(self):
        with pytest.raises(ValueError, match="block ids"):
            Partitioning(np.array([0, 5, 0, 1]), 2, edge_cut=0.0)

    def test_fractional_block_ids_rejected(self):
        """0.5 / 1.7 used to truncate silently to blocks 0 / 1."""
        with pytest.raises(ValueError, match=r"assignment\[0\] = 0\.5"):
            Partitioning([0.5, 1.7, 0, 1], 2, edge_cut=0.0)
        with pytest.raises(ValueError, match=r"assignment\[2\] = nan"):
            Partitioning([0.0, 1.0, np.nan, 1.0], 2, edge_cut=0.0)

    def test_bool_block_ids_rejected(self):
        with pytest.raises(ValueError, match=r"bool array; assignment\[0\] = True"):
            Partitioning(np.array([True, False, True, False]), 2, edge_cut=0.0)

    def test_integer_valued_float_ids_accepted(self):
        part = Partitioning([0.0, 1.0, 0.0, 1.0], 2, edge_cut=0.0)
        assert part.assignment.dtype == np.intp
        assert part.is_tile_aligned

    def test_generator_requires_divisible_communities(self):
        with pytest.raises(ValueError, match="equal communities"):
            planted_partition_maxcut(100, 7)

    def test_generator_rejects_bad_probabilities(self):
        with pytest.raises(ValueError, match="hub_bias"):
            planted_partition_maxcut(100, 4, hub_bias=1.5)
        with pytest.raises(ValueError, match="hub_fraction"):
            planted_partition_maxcut(100, 4, hub_fraction=-0.1)


# ----------------------------------------------------------------------
# Batched gain scorer ≡ the per-vertex scalar scorer it replaced
# ----------------------------------------------------------------------
# A frozen copy of the scalar scorer (dict pair counts, one vertex and one
# target at a time) that the batched FM refinement replaced.  The batched
# scorer must return exactly its (gain, target) — float gains compared
# bitwise — so every FM and drain move stays the same.
def _ref_pair_counts(indptr, indices, assign, k):
    n = assign.shape[0]
    rows = np.repeat(np.arange(n, dtype=np.intp), np.diff(indptr))
    half = rows < indices
    a, b = assign[rows[half]], assign[indices[half]]
    keys = np.minimum(a, b) * k + np.maximum(a, b)
    uniq, counts = np.unique(keys, return_counts=True)
    return {(int(q) // k, int(q) % k): int(c) for q, c in zip(uniq, counts)}


def _ref_vertex_conn(v, indptr, indices, weights, assign, k):
    lo, hi = indptr[v], indptr[v + 1]
    blocks = assign[indices[lo:hi]]
    cnt = np.bincount(blocks, minlength=k)
    wsum = np.bincount(blocks, weights=weights[lo:hi], minlength=k)
    uniq = np.flatnonzero(cnt)
    return uniq, cnt[uniq], wsum[uniq]


def _ref_tile_delta(own, target, nb_blocks, nb_counts, M):
    delta = {}
    for D, c in zip(nb_blocks, nb_counts):
        D, c = int(D), int(c)
        ka = (own, D) if own <= D else (D, own)
        kb = (target, D) if target <= D else (D, target)
        delta[ka] = delta.get(ka, 0) - c
        delta[kb] = delta.get(kb, 0) + c
    gain = 0
    for key, d in delta.items():
        if d == 0:
            continue
        before = M.get(key, 0)
        after = before + d
        weight = 1 if key[0] == key[1] else 2
        if before > 0 and after == 0:
            gain += weight
        elif before == 0 and after > 0:
            gain -= weight
    return gain


def _ref_tie(wgain):
    return 0.5 * (wgain / (1.0 + abs(wgain)))


def _ref_own_weight(own, nb_blocks, nb_wsums):
    pos = np.searchsorted(nb_blocks, own)
    if pos < nb_blocks.size and nb_blocks[pos] == own:
        return float(nb_wsums[pos])
    return 0.0


def _ref_best_move(v, indptr, indices, weights, assign, vweights, block_weight, caps, M):
    if indptr[v] == indptr[v + 1]:
        return None
    nb_blocks, nb_counts, nb_wsums = _ref_vertex_conn(
        v, indptr, indices, weights, assign, block_weight.shape[0]
    )
    own = int(assign[v])
    w_own = _ref_own_weight(own, nb_blocks, nb_wsums)
    best = None
    for i, B in enumerate(nb_blocks):
        B = int(B)
        if B == own or block_weight[B] + vweights[v] > caps[B]:
            continue
        gain = _ref_tile_delta(own, B, nb_blocks, nb_counts, M) + _ref_tie(
            float(nb_wsums[i]) - w_own
        )
        if best is None or gain > best[0]:
            best = (gain, B)
    return best


def _ref_best_drain_move(v, indptr, indices, weights, assign, sizes, targets, M):
    own = int(assign[v])
    if sizes[own] <= targets[own]:
        return None
    nb_blocks, nb_counts, nb_wsums = _ref_vertex_conn(
        v, indptr, indices, weights, assign, sizes.shape[0]
    )
    w_own = _ref_own_weight(own, nb_blocks, nb_wsums)
    best = None
    for i, B in enumerate(nb_blocks):
        B = int(B)
        if B == own or sizes[B] >= targets[B]:
            continue
        gain = _ref_tile_delta(own, B, nb_blocks, nb_counts, M) + _ref_tie(
            float(nb_wsums[i]) - w_own
        )
        if best is None or gain > best[0]:
            best = (gain, B)
    if best is None:
        under = np.flatnonzero(sizes < targets)
        if under.size == 0:
            return None
        B = int(under[0])
        best = (
            _ref_tile_delta(own, B, nb_blocks, nb_counts, M) + _ref_tie(-w_own),
            B,
        )
    return best


@st.composite
def refinement_states(draw):
    """A random weighted graph with a k-block assignment (isolated vertices
    and empty blocks included) and its CSR adjacency."""
    n = draw(st.integers(1, 24))
    k = draw(st.integers(1, 6))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n,
    ))
    edges = sorted({(min(a, b), max(a, b)) for a, b in pairs if a != b})
    w = draw(st.lists(
        st.one_of(
            st.sampled_from([0.0, 0.25, 1.0]),
            st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
        ),
        min_size=len(edges), max_size=len(edges),
    ))
    assign = np.array(
        draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)), dtype=np.intp
    )
    rows = np.array([a for a, b in edges] + [b for a, b in edges], dtype=np.intp)
    cols = np.array([b for a, b in edges] + [a for a, b in edges], dtype=np.intp)
    vals = np.array(w + w, dtype=np.float64)
    order = np.lexsort((cols, rows))
    indptr = np.zeros(n + 1, dtype=np.intp)
    indptr[1:] = np.cumsum(np.bincount(rows, minlength=n))
    return indptr, cols[order], vals[order], assign, k


class TestBatchedScorer:
    @settings(max_examples=150, deadline=None)
    @given(state=refinement_states(), data=st.data())
    def test_fm_moves_match_scalar_scorer(self, state, data):
        indptr, indices, weights, assign, k = state
        n = assign.shape[0]
        vweights = np.array(
            data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)),
            dtype=np.intp,
        )
        block_weight = np.bincount(assign, weights=vweights, minlength=k).astype(np.intp)
        # Slack may be negative: some targets are full for some vertices.
        caps = block_weight + np.array(
            data.draw(st.lists(st.integers(-2, 3), min_size=k, max_size=k)),
            dtype=np.intp,
        )
        M_ref = _ref_pair_counts(indptr, indices, assign, k)
        M = _pair_counts(indptr, indices, assign, k)
        U = np.arange(n)
        tiles, tie, target = _best_moves(
            U, vweights[U], caps - block_weight, indptr, indices, weights, assign, M
        )
        for v in range(n):
            ref = _ref_best_move(
                v, indptr, indices, weights, assign, vweights, block_weight, caps, M_ref
            )
            got = None if target[v] < 0 else (tiles[v] + tie[v], int(target[v]))
            assert got == ref, (v, got, ref)

    @settings(max_examples=150, deadline=None)
    @given(state=refinement_states(), data=st.data())
    def test_drain_moves_match_scalar_scorer(self, state, data):
        indptr, indices, weights, assign, k = state
        sizes = np.bincount(assign, minlength=k)
        # Over- and under-full blocks, or none under-full at all.
        targets = np.maximum(sizes + np.array(
            data.draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k)),
            dtype=np.intp,
        ), 0)
        M_ref = _ref_pair_counts(indptr, indices, assign, k)
        M = _pair_counts(indptr, indices, assign, k)
        U = np.flatnonzero(sizes[assign] > targets[assign])
        tiles, tie, target = _best_moves(
            U, np.ones(U.shape[0], dtype=np.intp), targets - sizes, indptr,
            indices, weights, assign, M, fallback=True,
        )
        for i, v in enumerate(U):
            ref = _ref_best_drain_move(
                int(v), indptr, indices, weights, assign, sizes, targets, M_ref
            )
            got = None if target[i] < 0 else (tiles[i] + tie[i], int(target[i]))
            assert got == ref, (int(v), got, ref)

    @settings(max_examples=150, deadline=None)
    @given(state=refinement_states(), data=st.data())
    def test_forced_moves_match_scalar_tile_delta(self, state, data):
        """Any (vertex, block) move — neighbour block or not — scores as the
        scalar tile delta plus the squashed cut tie-break."""
        indptr, indices, weights, assign, k = state
        n = assign.shape[0]
        forced = np.array(
            data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)),
            dtype=np.intp,
        )
        forced[forced == assign] = -1
        M_ref = _ref_pair_counts(indptr, indices, assign, k)
        M = _pair_counts(indptr, indices, assign, k)
        U = np.arange(n)
        tiles, tie, target = _best_moves(
            U, np.ones(n, dtype=np.intp), np.zeros(k, dtype=np.intp), indptr,
            indices, weights, assign, M, forced=forced,
        )
        assert np.array_equal(target, forced)
        for v in np.flatnonzero(forced >= 0):
            nb_blocks, nb_counts, nb_wsums = _ref_vertex_conn(
                v, indptr, indices, weights, assign, k
            )
            own, t = int(assign[v]), int(forced[v])
            at = np.flatnonzero(nb_blocks == t)
            w_t = float(nb_wsums[at[0]]) if at.size else 0.0
            assert tiles[v] == _ref_tile_delta(own, t, nb_blocks, nb_counts, M_ref)
            assert tie[v] == _ref_tie(w_t - _ref_own_weight(own, nb_blocks, nb_wsums))

    @settings(max_examples=100, deadline=None)
    @given(state=refinement_states(), data=st.data())
    def test_apply_move_keeps_pair_counts_exact(self, state, data):
        indptr, indices, weights, assign, k = state
        n = assign.shape[0]
        M = _pair_counts(indptr, indices, assign, k)
        moves = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, k - 1)), max_size=8
        ))
        undo = []
        for v, t in moves:
            undo.append((v, int(assign[v])))
            _apply_move(v, t, indptr, indices, assign, M)
            assert np.array_equal(M, _pair_counts(indptr, indices, assign, k))
        for v, frm in reversed(undo):
            _apply_move(v, frm, indptr, indices, assign, M)
        assert np.array_equal(M, M.T)
        assert np.array_equal(M, _pair_counts(indptr, indices, assign, k))


# ----------------------------------------------------------------------
# Pinned assignments: the batched refinement moves exactly as the scalar one
# ----------------------------------------------------------------------
def _digest(assignment: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(assignment, dtype=np.int64).tobytes()).hexdigest()[:16]


def _paper_model(name: str):
    specs = {spec.name: spec for spec in paper_instance_suite()}
    return build_instance(specs[name]).to_ising()


GOLDEN_GSET = Path(__file__).parent / "data" / "golden_g60.gset"

#: sha256 prefixes of ``partition_model(...).assignment`` (as int64), as
#: the per-vertex scalar refinement produced them.
PINNED_ASSIGNMENTS = {
    ("R2000-0", 64): "76a03e2cd54cb56b",
    ("R2000-0", 128): "96d90bf37ffdb7f1",
    ("T3000-0", 64): "b0ba9d810653231f",
    ("T3000-0", 128): "389f1e1211035ac8",
    ("golden-g60", 4): "ba65147fc8f1c162",
    ("golden-g60", 16): "a8d365fc6df6738b",
    ("golden-g60", 25): "6e3bf97740b07cff",
    ("clustered", 64): "2e73d6cf2dea3cc7",
}

#: Digest of the seeded dyadic corpus (24 seeds × tiles 2/3/4/8 × with and
#: without fields), assignments concatenated in that order.
PINNED_DYADIC_CORPUS = "f1fa8eb5110e21ae"


class TestPinnedAssignments:
    @pytest.mark.parametrize("name, tile", sorted(PINNED_ASSIGNMENTS))
    def test_assignment_digest(self, name, tile):
        if name == "golden-g60":
            model = parse_gset(GOLDEN_GSET, name=name).to_ising()
        elif name == "clustered":
            model = clustered_model()
        else:
            model = _paper_model(name)
        digest = _digest(partition_model(model, tile).assignment)
        assert digest == PINNED_ASSIGNMENTS[name, tile]

    def test_dyadic_corpus_digest(self):
        h = hashlib.sha256()
        for seed in range(24):
            for tile in (2, 3, 4, 8):
                for fields in (False, True):
                    part = partition_model(dyadic_sparse_model(seed, fields), tile)
                    h.update(np.asarray(part.assignment, dtype=np.int64).tobytes())
        assert h.hexdigest()[:16] == PINNED_DYADIC_CORPUS
