"""Sparse-aware tiled crossbar: registry, equivalence and bookkeeping tests.

The tiled machine must be a drop-in for the monolithic crossbar: identical
stored image (shared whole-matrix LSB), bit-identical behavioral increments
(dyadic couplings make every partial sum exact), a tile registry that holds
*only* nonzero blocks, and cost bookkeeping that counts logical cells — not
pad cells, not empty blocks.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch import CrossbarMapping, InSituCimAnnealer, TiledCrossbar
from repro.circuits import DgFefetCrossbar
from repro.circuits.crossbar import ActivationStats
from repro.circuits.quantize import MatrixQuantizer
from repro.core import graph_bandwidth, solve_ising, solve_maxcut
from repro.devices.constants import VBG_MAX
from repro.devices.variability import VariationModel
from repro.ising import IsingModel, MaxCutProblem, SparseIsingModel
from repro.utils.rng import ensure_rng

relaxed = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def block_sparse_model(seed: int, n: int = 48, tile: int = 16) -> SparseIsingModel:
    """A model whose nonzeros live in a few chosen blocks, quantizing exactly.

    Roughly half of the block grid stays structurally empty, so tiled
    evaluations exercise both the registry hit and miss paths.  Couplings
    are multiples of 1/16 with the peak pinned to 15/16, so the 4-bit LSB
    is exactly 1/16 and the stored image — hence every behavioral partial
    sum — is exactly representable: tiled-vs-monolithic assertions are
    bit-for-bit, matching the dyadic-exactness contract of the solver
    backends.
    """
    rng = ensure_rng(seed)
    grid = -(-n // tile)
    rows, cols, vals = [], [], []
    seen = set()
    for bi in range(grid):
        for bj in range(bi, grid):
            if rng.random() < 0.5:
                continue  # structurally empty block pair
            for _ in range(int(rng.integers(1, 6))):
                r = int(rng.integers(bi * tile, min((bi + 1) * tile, n)))
                c = int(rng.integers(bj * tile, min((bj + 1) * tile, n)))
                if r == c:
                    continue
                key = (min(r, c), max(r, c))
                if key in seen:
                    continue
                seen.add(key)
                rows.append(key[0])
                cols.append(key[1])
                vals.append(int(rng.integers(-15, 16)) / 16.0 or 0.0625)
    if not rows:  # degenerate draw: pin one coupling so the model is nonempty
        rows, cols, vals = [0], [1], [0.25]
    vals[0] = 15.0 / 16.0  # pin the peak so the quantizer LSB is exactly 1/16
    return SparseIsingModel.from_edges(n, rows, cols, vals, name=f"blocky-{seed}")


class TestBlockPartition:
    @relaxed
    @given(seed=st.integers(0, 10_000), tile=st.sampled_from([4, 7, 16]))
    def test_blocks_reassemble_exactly(self, seed, tile):
        model = block_sparse_model(seed)
        n = model.num_spins
        J = model.toarray()  # repro-lint: disable=RPL001 (tiny reassembly oracle)
        rebuilt = np.zeros_like(J)
        for (bi, bj), (lr, lc, vals) in model.block_partition(tile).items():
            assert lr.size > 0  # only nonzero blocks appear
            assert np.all((0 <= lr) & (lr < tile))
            assert np.all((0 <= lc) & (lc < tile))
            rebuilt[bi * tile + lr, bj * tile + lc] = vals
        assert np.array_equal(rebuilt, J)
        assert n  # sanity: the model is non-degenerate

    def test_empty_model_has_no_blocks(self):
        model = SparseIsingModel.from_dense(np.zeros((6, 6)))
        assert model.block_partition(4) == {}

    def test_max_abs_entry_matches_dense(self):
        model = block_sparse_model(3)
        # repro-lint: disable=RPL001 (dense oracle for the exact max)
        assert model.max_abs_entry() == float(np.max(np.abs(model.toarray())))


class TestTileRegistry:
    def test_empty_blocks_hold_no_tile(self):
        model = block_sparse_model(7)
        tiled = TiledCrossbar(model, tile_size=16, seed=0)
        occupied = set(model.block_partition(16))
        # registry is exactly the nonzero block set
        hat = tiled.matrix_hat
        for bi in range(tiled.grid):
            for bj in range(tiled.grid):
                tile = tiled.tile_at(bi, bj)
                assert (tile is not None) == ((bi, bj) in occupied)
                if tile is None:
                    continue
                # A read-only, zero-padded view of the stored tile image.
                block = hat[bi * 16:(bi + 1) * 16, bj * 16:(bj + 1) * 16]
                assert tile.shape == (16, 16)
                assert np.array_equal(tile[: block.shape[0], : block.shape[1]], block)
                assert not tile[block.shape[0]:].any()
                assert not tile.flags.writeable
        assert tiled.tile_at(-1, 0) is None and tiled.tile_at(0, tiled.grid) is None
        assert tiled.num_tiles == len(occupied) < tiled.grid_tiles
        assert 0.0 < tiled.occupancy < 1.0

    def test_grid_builds_no_per_tile_crossbar(self, monkeypatch):
        """Programming and reading the grid never instantiates a crossbar."""
        def refuse(*args, **kwargs):
            raise AssertionError("TiledCrossbar built a DgFefetCrossbar")

        monkeypatch.setattr(DgFefetCrossbar, "__init__", refuse)
        model = block_sparse_model(7)
        for backend in ("behavioral", "device"):
            tiled = TiledCrossbar(model, tile_size=16, backend=backend, seed=0)
            c = np.zeros(model.num_spins)
            c[:3] = -1.0
            tiled.compute_increment(np.ones(model.num_spins), c, 0.5)
            tiled.reset_drive_state()
            tiled.programming_summary()

    def test_dense_input_also_skips_empty_blocks(self):
        model = block_sparse_model(11)
        from_sparse = TiledCrossbar(model, tile_size=16, seed=0)
        from_dense = TiledCrossbar(model.toarray(), tile_size=16, seed=0)  # repro-lint: disable=RPL001
        assert from_sparse.num_tiles == from_dense.num_tiles
        assert np.array_equal(from_sparse.matrix_hat, from_dense.matrix_hat)

    def test_all_zero_matrix(self):
        tiled = TiledCrossbar(np.zeros((8, 8)), tile_size=4, seed=0)
        assert tiled.num_tiles == 0
        assert tiled.factor(0.7) == pytest.approx(1.0)
        sigma = np.ones(8)
        c = np.zeros(8)
        c[3] = -1.0
        value, stats = tiled.compute_increment(sigma, c, 0.5)
        assert value == 0.0
        assert stats.adc_conversions == 0
        summary = tiled.programming_summary()
        assert summary["cells"] == 0.0
        assert summary["tiles"] == 0.0


class TestIncrementEquivalence:
    @relaxed
    @given(seed=st.integers(0, 10_000))
    def test_tiled_matches_monolithic_bit_for_bit(self, seed):
        """Dense-input and sparse-input tiles equal the monolithic array.

        Couplings are dyadic, so the behavioral VMV partial sums are exact
        and the equality is ``==``, not approx — including proposals whose
        flipped spins land in columns whose blocks are partly or fully
        empty (the registry-miss path).
        """
        model = block_sparse_model(seed)
        n = model.num_spins
        J = model.toarray()  # repro-lint: disable=RPL001 (tiny flip oracle)
        mono = DgFefetCrossbar(J, seed=0)
        tiled_dense = TiledCrossbar(J, tile_size=16, seed=0)
        tiled_sparse = TiledCrossbar(model, tile_size=16, seed=0)
        assert np.array_equal(tiled_dense.matrix_hat, mono.matrix_hat)
        assert np.array_equal(tiled_sparse.matrix_hat, mono.matrix_hat)

        rng = ensure_rng(seed + 1)
        sigma = rng.choice([-1.0, 1.0], n)
        for trial in range(8):
            flips = rng.choice(n, size=1 + trial % 3, replace=False)
            c = np.zeros(n)
            c[flips] = -sigma[flips]
            r = sigma.copy()
            r[flips] = 0.0
            v_bg = float(rng.uniform(0.05, 0.7))
            vm, _ = mono.compute_increment(r, c, v_bg)
            vd, _ = tiled_dense.compute_increment(r, c, v_bg)
            vs, _ = tiled_sparse.compute_increment(r, c, v_bg)
            assert vd == vm
            assert vs == vm

    def test_general_float_couplings_agree_to_tolerance(self):
        """Non-representable stored images: same maths, different sum order.

        When the quantizer LSB is not a dyadic rational the per-tile
        partial sums round differently from the monolithic column sums, so
        agreement is to float tolerance — the same contract the dense and
        sparse solver backends document for arbitrary float couplings.
        """
        rng = ensure_rng(42)
        problem = MaxCutProblem.random(40, 200, seed=3)
        J = problem.to_ising().J * 1.7  # peak 0.425: non-dyadic LSB
        mono = DgFefetCrossbar(J, seed=0)
        tiled = TiledCrossbar(J, tile_size=16, seed=0)
        sigma = rng.choice([-1.0, 1.0], 40)
        for _ in range(6):
            flips = rng.choice(40, size=2, replace=False)
            c = np.zeros(40)
            c[flips] = -sigma[flips]
            r = sigma.copy()
            r[flips] = 0.0
            vm, _ = mono.compute_increment(r, c, 0.5)
            vt, _ = tiled.compute_increment(r, c, 0.5)
            assert vt == pytest.approx(vm, rel=1e-12, abs=1e-12)

    def test_flip_into_fully_empty_column_block(self):
        """A flip whose column block holds no tile senses exactly zero."""
        n, tile = 32, 8
        J = np.zeros((n, n))
        J[0, 1] = J[1, 0] = 0.25  # only block (0, 0) is occupied
        tiled = TiledCrossbar(J, tile_size=tile, seed=0)
        assert tiled.num_tiles == 1
        sigma = np.ones(n)
        c = np.zeros(n)
        c[20] = -1.0  # block 2: structurally empty
        r = sigma.copy()
        r[20] = 0.0
        value, stats = tiled.compute_increment(r, c, 0.6)
        mono_value, _ = DgFefetCrossbar(J, seed=0).compute_increment(r, c, 0.6)
        assert value == mono_value == 0.0
        assert stats.adc_conversions == 0  # no tile was activated


class BlockOracle:
    """Reference tiled read: one monolithic crossbar per nonzero block.

    Blocks are programmed in row-major order from one shared generator,
    read in (column block, row block) order, their values summed
    digitally and their activity counters combined (sums, with the
    critical path taking maxima) — the per-tile composition the stacked
    :class:`TiledCrossbar` must reproduce.  Behavioral tiles are read at
    ``V_BG^{max}`` and the rail factor applied once to the sum; device
    tiles read at the rail level itself.
    """

    def __init__(self, J, tile, backend="behavioral", variation=None, seed=0):
        rng = ensure_rng(seed)
        self.n = J.shape[0]
        self.tile = tile
        self.grid = -(-self.n // tile)
        self.behavioral = backend == "behavioral"
        lsb = MatrixQuantizer(4).lsb_for(J)
        self.tiles = {}
        for bi in range(self.grid):
            for bj in range(self.grid):
                sub = J[bi * tile:(bi + 1) * tile, bj * tile:(bj + 1) * tile]
                if not np.any(sub):
                    continue
                block = np.zeros((tile, tile))
                block[: sub.shape[0], : sub.shape[1]] = sub
                self.tiles[(bi, bj)] = DgFefetCrossbar(
                    block, lsb=lsb, backend=backend, variation=variation,
                    require_symmetric=False, seed=rng,
                )

    def reset_drive_state(self):
        for tile in self.tiles.values():
            tile.reset_drive_state()

    def compute_increment(self, r, c, v_bg):
        s = self.tile
        rp = np.zeros(self.grid * s)
        cp = np.zeros(self.grid * s)
        rp[: self.n] = r
        cp[: self.n] = c
        total = 0.0
        stats = []
        for bj in sorted(set((np.flatnonzero(c) // s).tolist())):
            for bi in range(self.grid):
                tile = self.tiles.get((bi, bj))
                if tile is None:
                    continue
                value, st = tile.compute_increment(
                    rp[bi * s:(bi + 1) * s], cp[bj * s:(bj + 1) * s],
                    VBG_MAX if self.behavioral else v_bg,
                )
                total += value
                stats.append(st)
        if self.behavioral and stats:
            total *= next(iter(self.tiles.values())).factor(v_bg)
        return total, ActivationStats(
            phases=max((st.phases for st in stats), default=0),
            adc_conversions=sum(st.adc_conversions for st in stats),
            mux_slots=max((st.mux_slots for st in stats), default=0),
            sa_codes=sum(st.sa_codes for st in stats),
            fg_toggles=sum(st.fg_toggles for st in stats),
            dl_toggles=sum(st.dl_toggles for st in stats),
            active_cells=sum(st.active_cells for st in stats),
            settle_time=max((st.settle_time for st in stats), default=0.0),
        )


def read_sequence(rng, n, tile, steps):
    """Yield ``("reset", None, None, None)`` or ``("read", r, c, v_bg)``.

    A walk over one spin state mixing the annealer's proposals (1–4
    flips, all in one column block or spread over several, accepted half
    the time) with dense reads (``σ_rᵀĴσ``), sparse ``{-1, 0, +1}``
    drives, undriven reads and drive-state resets — so toggle carry-over
    between reads and across resets is exercised.
    """
    grid = -(-n // tile)
    sigma = rng.choice([-1.0, 1.0], n)
    for _ in range(steps):
        kind = rng.choice(["same", "spread", "dense", "sparse", "none", "reset"],
                          p=[0.3, 0.25, 0.1, 0.15, 0.05, 0.15])
        v_bg = float(rng.integers(0, 71)) / 100.0
        if kind == "reset":
            yield "reset", None, None, None
            continue
        if kind in ("same", "spread"):
            t = int(rng.integers(1, 5))
            if kind == "same":
                bj = int(rng.integers(grid))
                block = np.arange(bj * tile, min((bj + 1) * tile, n))
                flips = rng.choice(block, size=min(t, block.size), replace=False)
            else:
                flips = rng.choice(n, size=t, replace=False)
            c = np.zeros(n)
            c[flips] = -sigma[flips]
            r = sigma.copy()
            r[flips] = 0.0
            if rng.random() < 0.5:
                sigma[flips] = -sigma[flips]
        elif kind == "dense":
            r, c = sigma.copy(), sigma.copy()
        elif kind == "sparse":
            r = rng.choice([-1.0, 0.0, 1.0], n)
            c = rng.choice([-1.0, 0.0, 0.0, 0.0, 1.0], n)
        else:
            r, c = sigma.copy(), np.zeros(n)
        yield "read", r, c, v_bg


class TestTiledReadOracle:
    """The stacked grid reads exactly like one crossbar per block."""

    @staticmethod
    def _check(J, tile, backend, variation, seed, steps, exact):
        tiled = TiledCrossbar(
            J, tile_size=tile, backend=backend, variation=variation, seed=seed
        )
        oracle = BlockOracle(J, tile, backend, variation, seed=seed)
        assert np.array_equal(tiled.matrix_hat[: J.shape[0]], np.block([
            [oracle.tiles[(bi, bj)].matrix_hat if (bi, bj) in oracle.tiles
             else np.zeros((tile, tile)) for bj in range(oracle.grid)]
            for bi in range(oracle.grid)
        ])[: J.shape[0], : J.shape[0]])
        rng = ensure_rng(seed + 1)
        for kind, r, c, v_bg in read_sequence(rng, J.shape[0], tile, steps):
            if kind == "reset":
                tiled.reset_drive_state()
                oracle.reset_drive_state()
                continue
            got, got_stats = tiled.compute_increment(r, c, v_bg)
            want, want_stats = oracle.compute_increment(r, c, v_bg)
            assert got_stats == want_stats
            if exact:
                assert got == want
            else:
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    @relaxed
    @given(seed=st.integers(0, 10_000), tile=st.sampled_from([4, 5, 8]))
    def test_behavioral_reads_bit_identical(self, seed, tile):
        """Dyadic images: every partial sum is exact, so values are ``==``.

        ``n = 22`` leaves a ragged last block for every tile size.
        """
        J = block_sparse_model(seed, n=22, tile=tile).toarray()  # repro-lint: disable=RPL001
        self._check(J, tile, "behavioral", None, seed, steps=24, exact=True)

    @relaxed
    @given(seed=st.integers(0, 10_000), tile=st.sampled_from([4, 8]))
    def test_behavioral_variation_reads(self, seed, tile):
        """Frozen weight error and read noise draw in the per-block order."""
        J = block_sparse_model(seed, n=22, tile=tile).toarray()  # repro-lint: disable=RPL001
        variation = VariationModel(vth_sigma=0.02, read_noise_sigma=0.03)
        self._check(J, tile, "behavioral", variation, seed, steps=16, exact=False)

    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000),
           variation=st.sampled_from(
               [None, VariationModel(vth_sigma=0.01, read_noise_sigma=0.01)]))
    def test_device_reads(self, seed, variation):
        J = block_sparse_model(seed, n=10, tile=4).toarray()  # repro-lint: disable=RPL001
        self._check(J, 4, "device", variation, seed, steps=8, exact=False)


class TestIncrementValidation:
    @staticmethod
    def _tiled():
        J = np.zeros((8, 8))
        J[0, 1] = J[1, 0] = 0.5  # only block (0, 0) holds a tile
        J[1, 2] = J[2, 1] = -0.25
        return TiledCrossbar(J, tile_size=4, seed=0)

    def test_values_checked_outside_activated_tiles(self):
        """A bad row value in a block no driven tile reads is still caught."""
        tiled = self._tiled()
        r = np.ones(8)
        r[1] = 0.0
        r[6] = 2.0  # row block 1: no tile in column block 0
        c = np.zeros(8)
        c[1] = -1.0
        with pytest.raises(ValueError, match=r"inputs must take values in \{-1, 0, \+1\}"):
            tiled.compute_increment(r, c, 0.5)
        value, _ = tiled.compute_increment(r, c, 0.5, validate=False)
        mono = DgFefetCrossbar(tiled.matrix_hat, seed=0)
        assert value == mono.compute_increment(r, c, 0.5, validate=False)[0]

    def test_undriven_read_still_validates(self):
        tiled = self._tiled()
        with pytest.raises(ValueError, match="v_bg"):
            tiled.compute_increment(np.ones(8), np.zeros(8), 0.9)
        with pytest.raises(ValueError, match=r"inputs must take values"):
            tiled.compute_increment(np.ones(8), np.full(8, 0.5), 0.5)
        with pytest.raises(ValueError, match=r"input vectors must have shape \(8,\)"):
            tiled.compute_increment(np.ones(7), np.zeros(8), 0.5)


class TestSharedLsb:
    def test_tiles_quantize_on_the_whole_matrix_scale(self):
        """A block whose local max is below the global max still matches.

        Per-tile LSBs would requantize such a block on a finer grid and the
        assembled image would differ from the monolithic crossbar; the
        shared LSB keeps them identical.
        """
        n = 32
        J = np.zeros((n, n))
        J[0, 1] = J[1, 0] = 1.0     # block (0, 0): global peak
        J[0, 20] = J[20, 0] = 0.3   # block (0, 2)/(2, 0): smaller local max
        mono = DgFefetCrossbar(J, seed=0)
        tiled = TiledCrossbar(J, tile_size=8, seed=0)
        assert tiled.lsb == mono.quantized.lsb
        assert np.array_equal(tiled.matrix_hat, mono.matrix_hat)
        sparse = TiledCrossbar(SparseIsingModel.from_dense(J), tile_size=8, seed=0)
        assert sparse.lsb == mono.quantized.lsb
        assert np.array_equal(sparse.matrix_hat, mono.matrix_hat)


class TestProgrammingSummary:
    def test_counts_logical_cells_not_pads(self):
        """Edge tiles are padded to tile_size; pads must not be counted."""
        n, tile, bits = 10, 8, 4
        model = MaxCutProblem.random(n, 30, seed=4).to_ising()
        tiled = TiledCrossbar(model.J, tile_size=tile, bits=bits, seed=0)
        expected_cells = 0.0
        for bi in range(tiled.grid):
            for bj in range(tiled.grid):
                if tiled.tile_at(bi, bj) is None:
                    continue
                r = min((bi + 1) * tile, n) - bi * tile
                c = min((bj + 1) * tile, n) - bj * tile
                expected_cells += 2 * bits * r * c
        summary = tiled.programming_summary()
        assert summary["cells"] == expected_cells
        assert summary["write_pulses"] == expected_cells
        # a fully occupied grid covers exactly the monolithic cell count
        if tiled.num_tiles == tiled.grid_tiles:
            mono = DgFefetCrossbar(model.J, bits=bits, seed=0)
            assert summary["cells"] == mono.programming_summary()["cells"]
            assert (
                summary["programmed_ones"]
                == mono.programming_summary()["programmed_ones"]
            )

    def test_empty_blocks_add_nothing(self):
        model = block_sparse_model(5)
        tiled = TiledCrossbar(model, tile_size=16, seed=0)
        summary = tiled.programming_summary()
        assert summary["tiles"] == tiled.num_tiles
        assert summary["grid_tiles"] == tiled.grid_tiles
        assert summary["cells"] == 2 * tiled.bits * 16 * 16 * tiled.num_tiles
        # ones equal the monolithic image's programmed cells regardless
        mono = DgFefetCrossbar(model.toarray(), seed=0)  # repro-lint: disable=RPL001
        assert summary["programmed_ones"] == (
            mono.programming_summary()["programmed_ones"]
        )


class TestStoredModelAndMapping:
    def test_stored_model_equals_assembled_image(self):
        model = block_sparse_model(9)
        tiled = TiledCrossbar(model, tile_size=16, seed=0)
        stored = tiled.stored_model(offset=1.5, name="img")
        assert stored.offset == 1.5
        # repro-lint: disable=RPL001 (stored-image equivalence check)
        assert np.array_equal(stored.toarray(), tiled.matrix_hat)

    def test_machine_uses_sparse_hw_model_and_tile_mapping(self):
        model = block_sparse_model(13)
        machine = InSituCimAnnealer(model, tile_size=16, seed=0)
        assert isinstance(machine.hw_model, SparseIsingModel)
        assert machine.mapping == CrossbarMapping.for_tiled(
            machine.crossbar, machine.config.adc.mux_ratio,
            ordering="identity", bandwidth=graph_bandwidth(model),
        )
        assert machine.mapping.num_spins == 16  # per-tile geometry
        assert machine.mapping.planes == machine.crossbar.planes
        # The mapping summary reports the layout next to the geometry.
        summary = machine.mapping.summary()
        assert summary["ordering"] == "identity"
        assert summary["bandwidth"] == graph_bandwidth(model)


class TestMachineEquivalence:
    def test_tiled_machine_bit_identical_to_monolithic(self):
        """Same seed, same instance: tiled and monolithic runs coincide."""
        problem = MaxCutProblem.random(40, 200, seed=2)
        model = problem.to_ising()
        mono = InSituCimAnnealer(model, seed=1).run(400)
        tiled = InSituCimAnnealer(
            SparseIsingModel.from_ising(model), tile_size=16, seed=1
        ).run(400)
        assert tiled.anneal.best_energy == mono.anneal.best_energy
        assert tiled.anneal.energy == mono.anneal.energy
        assert tiled.anneal.accepted == mono.anneal.accepted
        assert np.array_equal(tiled.anneal.best_sigma, mono.anneal.best_sigma)
        assert np.array_equal(tiled.anneal.sigma, mono.anneal.sigma)

    def test_dense_input_machine_still_works(self):
        problem = MaxCutProblem.random(30, 120, seed=5)
        machine = InSituCimAnnealer(problem.to_ising(), tile_size=12, seed=1)
        assert isinstance(machine.hw_model, IsingModel)
        result = machine.run(300)
        check = machine.hw_model.energy(result.anneal.best_sigma)
        assert check == pytest.approx(result.anneal.best_energy, abs=1e-9)


class TestSolveApiRouting:
    def test_solve_maxcut_tiled_matches_machine(self):
        problem = MaxCutProblem.random(40, 200, seed=2)
        via_api = solve_maxcut(
            problem, iterations=300, seed=3, backend="sparse", tile_size=16
        )
        machine = InSituCimAnnealer(
            problem.to_ising(backend="sparse"), tile_size=16, seed=3
        )
        direct = machine.run(300)
        assert via_api.anneal.best_energy == direct.anneal.best_energy
        assert via_api.anneal.accepted == direct.anneal.accepted

    def test_fielded_model_folds_and_strips_ancilla(self):
        rng = ensure_rng(5)
        n = 16
        vals = rng.integers(-4, 5, size=(n, n)) / 4.0
        upper = np.triu(vals * (rng.random((n, n)) < 0.4), k=1)
        h = rng.integers(-4, 5, size=n) / 4.0
        model = IsingModel(upper + upper.T, h)
        result = solve_ising(model, iterations=200, seed=2, tile_size=8)
        assert result.sigma.shape == (n,)
        assert result.best_sigma.shape == (n,)
        assert np.all(np.isin(result.best_sigma, (-1, 1)))

    def test_crossbar_backend_reaches_the_tiled_machine(self):
        """`backend` names the coupling backend on the solve API, so the
        machine's simulation backend travels as `crossbar_backend`."""
        problem = MaxCutProblem.random(10, 20, seed=6)
        result = solve_maxcut(
            problem, iterations=30, seed=1, backend="sparse",
            tile_size=4, crossbar_backend="device",
        )
        assert result.anneal.iterations == 30

    def test_tile_size_validation(self):
        model = IsingModel.random(12, seed=1)
        with pytest.raises(ValueError, match="tile_size must be >= 2"):
            solve_ising(model, iterations=10, tile_size=1)
        with pytest.raises(ValueError, match="tile_size must be an integer"):
            solve_ising(model, iterations=10, tile_size=True)
        with pytest.raises(ValueError, match="method='insitu'"):
            solve_ising(model, iterations=10, tile_size=8, method="sa")

    def test_tiled_crossbar_validation(self):
        with pytest.raises(ValueError, match="square"):
            TiledCrossbar(np.zeros((4, 5)), tile_size=2)
        with pytest.raises(ValueError, match="tile_size"):
            TiledCrossbar(np.zeros((4, 4)), tile_size=1)
