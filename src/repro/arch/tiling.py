"""Multi-tile crossbar: sparse-aware scaling beyond one physical array.

The paper evaluates a single crossbar per annealer ("Each annealer contains
a single crossbar", Sec. 4), which caps the problem size at the array
dimension.  This extension tiles the coupling matrix over a grid of
independent DG FeFET arrays:

* ``J`` is split into ``⌈n/s⌉ × ⌈n/s⌉`` blocks of side ``s`` (the physical
  array rows), and a tile is programmed **only for blocks containing
  nonzeros** — the grid is sparse, not a dense ``grid²`` list.  A
  degree-6 graph with locality (banded / toroidal orderings) needs a few
  hundred tiles where a dense grid would program tens of thousands;
* the grid is built directly from :class:`~repro.ising.sparse.
  SparseIsingModel` CSR arrays via per-tile COO extraction
  (:meth:`~repro.ising.sparse.SparseIsingModel.block_partition`) — the full
  dense ``(n, n)`` matrix is never materialised on that path;
* every tile quantizes against the *whole-matrix* LSB, so the assembled
  stored image is identical to a monolithic crossbar programming the same
  matrix;
* the programmed tiles are one tensor: a ``(T, s, s)`` stack of stored
  images ordered by (column block, row block), so the tiles a driven column
  block activates are one contiguous range and are read together in a
  fixed number of array operations — all activated tiles operate in
  parallel and their partial sums are combined digitally (one extra
  adder-tree level);
* activity counters sum across tiles while the critical path takes the
  *maximum* slot count of any tile.

The interface mirrors :class:`~repro.circuits.crossbar.DgFefetCrossbar`
(``matrix_hat``, ``factor``, ``compute_increment``, ``programming_summary``)
so the in-situ machine can drive a tiled array transparently; consumers that
must stay O(nnz) use :meth:`stored_model` instead of the dense
``matrix_hat``.  The monolithic crossbar stays the reference: a tiled read
equals one such crossbar per block, read in (column block, row block)
order and combined as above.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.crossbar import (
    PROGRAM_PULSE_ENERGY,
    ActivationStats,
    NominalCell,
    check_drive,
    device_read,
)
from repro.circuits.interconnect import WireModel
from repro.circuits.quantize import MatrixQuantizer
from repro.circuits.shift_add import ShiftAddUnit
from repro.devices.variability import VariationModel
from repro.ising.sparse import SparseIsingModel
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_count

_ZERO_STATS = ActivationStats(
    phases=0,
    adc_conversions=0,
    mux_slots=0,
    sa_codes=0,
    fg_toggles=0,
    dl_toggles=0,
    active_cells=0,
    settle_time=0.0,
)


class TiledCrossbar:
    """A sparse grid of DG FeFET crossbar tiles storing one coupling matrix.

    Parameters
    ----------
    matrix:
        Coupling matrix of any size — a dense square array or a
        :class:`~repro.ising.sparse.SparseIsingModel` (CSR path; the dense
        matrix is never formed).
    tile_size:
        Physical array rows/columns per tile (the block side ``s``).
    bits / backend / wire / shift_add / variation / seed:
        The per-tile array parameters of
        :class:`~repro.circuits.crossbar.DgFefetCrossbar`.  Programming
        draws (``variation=`` threshold spread) are taken tile by tile in
        row-major block order from the one generator ``seed`` names.
    """

    def __init__(
        self,
        matrix,
        tile_size: int,
        bits: int = 4,
        backend: str = "behavioral",
        wire: WireModel | None = None,
        shift_add: ShiftAddUnit | None = None,
        variation: VariationModel | None = None,
        seed=None,
    ) -> None:
        self.tile_size = check_count(
            "tile_size", tile_size, minimum=2,
            hint="a physical tile needs at least 2 rows",
        )
        if backend not in ("behavioral", "device"):
            raise ValueError(f"unknown backend {backend!r}")
        quantizer = MatrixQuantizer(bits)
        self.bits = quantizer.bits
        self.backend = backend
        self.wire = wire or WireModel()
        self.shift_add = shift_add or ShiftAddUnit()
        self.variation = variation or VariationModel()
        self._rng = ensure_rng(seed)
        s = self.tile_size
        if isinstance(matrix, SparseIsingModel):
            self.n = matrix.num_spins
            self.lsb = quantizer.lsb_for_peak(matrix.max_abs_entry())
        else:
            matrix = np.asarray(matrix, dtype=np.float64)
            if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
                raise ValueError("matrix must be square")
            self.n = matrix.shape[0]
            self.lsb = quantizer.lsb_for(matrix)
        self.grid = -(-self.n // s)
        # Every tile reads against the same nominal cell, rail and ADC.
        self.nominal = NominalCell()
        self.adc = self.nominal.default_adc(s)
        self._program(matrix, quantizer)
        self._matrix_hat: np.ndarray | None = None

    def _program(self, matrix, quantizer: MatrixQuantizer) -> None:
        """Quantize every nonzero block into the stacked grid, in one pass."""
        s = self.tile_size
        keys, rows, cols, vals = [], [], [], []
        for key, lr, lc, v in self._iter_nonzero_blocks(matrix):
            keys.append(key)
            rows.append(lr)
            cols.append(lc)
            vals.append(v)
        count = len(keys)
        blocks = np.array(keys, dtype=np.intp).reshape(count, 2)
        # Stack order is (column block, row block): the tiles one driven
        # column block activates form the range _col_ptr[bj]:_col_ptr[bj+1].
        # `order[p]` is the row-major index of stack entry p, and
        # `self._row_major` lists stack entries in row-major order.
        order = np.lexsort((blocks[:, 0], blocks[:, 1]))
        self._row_major = np.empty(count, dtype=np.intp)
        self._row_major[order] = np.arange(count)
        self._block_rows = blocks[order, 0]
        self._block_cols = blocks[order, 1]
        self._col_ptr = np.searchsorted(self._block_cols, np.arange(self.grid + 1))

        # Element-wise quantization of the nonzeros only: the same integer
        # levels (and hence the same image) as the monolithic quantizer.
        sizes = [v.size for v in vals]
        entry_tile = np.repeat(self._row_major, sizes)
        values = np.concatenate(vals) if vals else np.zeros(0)
        levels = np.minimum(
            np.rint(np.abs(values) / self.lsb).astype(np.int64), quantizer.max_level
        )
        signed = np.where(values < 0, -levels, levels)
        # Cell layout per tile is (column, row): _image[p, j, i] stores
        # Ĵ[i, j] of tile p, so a driven drain line's cells are contiguous.
        self._image = np.zeros((count, s, s))
        if count:
            self._image[entry_tile, np.concatenate(cols), np.concatenate(rows)] = (
                self.lsb * signed
            )
        ones = sum((levels >> b) & 1 for b in range(self.bits))
        tile_ones = np.bincount(entry_tile, weights=ones, minlength=count)
        negative = np.bincount(entry_tile, weights=signed < 0, minlength=count) > 0
        # Per-tile read geometry: sign planes, ADC columns per driven line
        # and ADCs per tile (a tile's columns share mux_ratio-way ADCs).
        self._planes = np.where(negative, 2, 1)
        self._line_columns = self.bits * self._planes
        self._num_adcs = np.maximum(1, s * self._line_columns // self.adc.mux_ratio)
        self._settle = self.wire.settle_time(s)
        self._row_pad = np.zeros(self.grid * s - self.n)
        # FG/DL drive state per tile; parked lines are all zero.
        self._fg = np.zeros((count, s), dtype=np.int8)
        self._dl = np.zeros((count, s), dtype=np.int8)
        self._summary = self._programming_cost(blocks, tile_ones[self._row_major])
        self._draw_variation(order)

    def _draw_variation(self, order: np.ndarray) -> None:
        """Frozen per-cell spread, drawn tile by tile in row-major order."""
        count, s = self._image.shape[0], self.tile_size
        self._vth_offsets = self._weight_error = None
        sigma = self.variation.vth_sigma
        if sigma == 0.0 or count == 0:
            return
        if self.backend == "device":
            offsets = self.variation.sample_vth_offsets(
                (count, 2, self.bits, s, s), self._rng
            )
            self._vth_offsets = offsets[order]
        else:
            # Behavioural stand-in: a static relative weight error at
            # mid-range V_BG, symmetric within each tile (so it reads the
            # same in the stack's (column, row) cell layout).
            eps = self._rng.normal(
                0.0, self.nominal.relative_current_sigma(sigma), size=(count, s, s)
            )
            self._weight_error = ((eps + eps.transpose(0, 2, 1)) / 2.0)[order]

    def _iter_nonzero_blocks(self, matrix):
        """Yield ``((bi, bj), rows, cols, values)`` per nonzero block.

        Row-major block order, block-local coordinates.  Sparse models come
        through :meth:`SparseIsingModel.block_partition` (one O(nnz log
        nnz) pass, no dense matrix); dense arrays are sliced block by block.
        """
        if isinstance(matrix, SparseIsingModel):
            for key, (lr, lc, vals) in sorted(
                matrix.block_partition(self.tile_size).items()
            ):
                yield key, lr, lc, vals
            return
        for bi in range(self.grid):
            r0, r1 = self._extent(bi)
            for bj in range(self.grid):
                c0, c1 = self._extent(bj)
                sub = matrix[r0:r1, c0:c1]
                lr, lc = np.nonzero(sub)
                if lr.size:  # empty block: no tile is programmed
                    yield (bi, bj), lr, lc, sub[lr, lc]

    def _extent(self, block: int) -> tuple[int, int]:
        """Global ``[start, stop)`` of block ``block`` (the last may be short)."""
        start = int(block) * self.tile_size
        return start, min(start + self.tile_size, self.n)

    def _programming_cost(self, blocks: np.ndarray, tile_ones: np.ndarray) -> dict:
        """Write cost over the logical cells of each tile.

        ``blocks`` and ``tile_ones`` list the tiles in row-major order, the
        order the float sums run in.
        """
        totals = {
            "cells": 0.0,
            "programmed_ones": 0.0,
            "write_pulses": 0.0,
            "energy": 0.0,
        }
        for (bi, bj), ones in zip(blocks.tolist(), tile_ones.tolist()):
            r0, r1 = self._extent(bi)
            c0, c1 = self._extent(bj)
            cells = 2.0 * self.bits * (r1 - r0) * (c1 - c0)
            totals["cells"] += cells
            totals["programmed_ones"] += ones
            totals["write_pulses"] += cells
            totals["energy"] += cells * PROGRAM_PULSE_ENERGY
        totals["tiles"] = float(self.num_tiles)
        totals["grid_tiles"] = float(self.grid_tiles)
        return totals

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def num_tiles(self) -> int:
        """Instantiated (nonzero-block) tiles — at most ``grid²``."""
        return self._image.shape[0]

    @property
    def grid_tiles(self) -> int:
        """Tile slots of the full grid, ``grid²``."""
        return self.grid * self.grid

    @property
    def occupancy(self) -> float:
        """Fraction of grid slots actually holding a programmed tile."""
        return self.num_tiles / self.grid_tiles if self.grid_tiles else 0.0

    @property
    def planes(self) -> int:
        """Sign planes in use across the grid (2 iff any tile stores one)."""
        return int(self._planes.max(initial=1))

    def tile_at(self, block_row: int, block_col: int) -> np.ndarray | None:
        """Read-only view of the stored tile image at a block, if programmed."""
        if not (0 <= block_row < self.grid and 0 <= block_col < self.grid):
            return None
        lo, hi = self._col_ptr[block_col], self._col_ptr[block_col + 1]
        p = lo + int(np.searchsorted(self._block_rows[lo:hi], block_row))
        if p == hi or self._block_rows[p] != block_row:
            return None
        view = self._image[p].T
        view.flags.writeable = False
        return view

    def _tiles_row_major(self):
        """``(stack index, (r0, r1), (c0, c1))`` of every tile, row-major."""
        for p in self._row_major.tolist():
            yield p, self._extent(self._block_rows[p]), self._extent(self._block_cols[p])

    @property
    def matrix_hat(self) -> np.ndarray:
        """Dense stored image ``Ĵ`` assembled from the tiles on demand.

        O(n²) memory — small-instance/test convenience only; large sparse
        flows use :meth:`stored_model` and never build this.
        """
        if self._matrix_hat is None:
            out = np.zeros((self.n, self.n))
            for p, (r0, r1), (c0, c1) in self._tiles_row_major():
                out[r0:r1, c0:c1] = self._image[p, : c1 - c0, : r1 - r0].T
            self._matrix_hat = out
        return self._matrix_hat

    def stored_model(
        self, offset: float = 0.0, name: str = "tiled-crossbar"
    ) -> SparseIsingModel:
        """The stored image ``Ĵ`` as a :class:`SparseIsingModel`.

        Collects the stack's dequantized nonzeros back into global COO
        coordinates — O(nnz + tiles · s²) work, never an ``(n, n)`` array.
        Quantization is element-wise on a symmetric matrix, so the image is
        symmetric and the canonical upper triangle is complete.
        """
        p, lc, lr = np.nonzero(self._image)
        rows = self._block_rows[p] * self.tile_size + lr
        cols = self._block_cols[p] * self.tile_size + lc
        keep = rows <= cols  # the lower triangle mirrors the upper one
        return SparseIsingModel.from_edges(
            self.n,
            rows[keep],
            cols[keep],
            self._image[p[keep], lc[keep], lr[keep]],
            None,
            offset=offset,
            name=name,
        )

    def factor(self, v_bg: float) -> float:
        """Shared-rail factor (all tiles see the same back-gate voltage)."""
        return self.nominal.factor(v_bg)

    def reset_drive_state(self) -> None:
        """Park every tile's FG/DL lines (fresh-run toggle accounting).

        Mirrors :meth:`DgFefetCrossbar.reset_drive_state` across the
        grid so repeat anneals on one programmed plan bill their first
        activation like a cold machine.
        """
        self._fg[:] = 0
        self._dl[:] = 0

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def compute_increment(
        self, sigma_r, sigma_c, v_bg: float, validate: bool = True
    ) -> tuple[float, ActivationStats]:
        """Tile-parallel evaluation of ``σ_rᵀ Ĵ σ_c · f(V_BG)``.

        Only (row-block, col-block) pairs whose tile exists *and* whose
        column slice is driven are activated — for a single-flip proposal
        on a sparse matrix that is the flipped spin's column block times
        the few row blocks holding its neighbours.  Each driven column
        block's tiles are read together: one gather of the driven columns,
        one batched partial sum per tile, and vectorised activity counts.

        In the behavioral backend the partial sums are combined digitally
        in (column block, row block) order and the shared-rail factor is
        applied *once* to the combined value (tiles are read at
        ``V_BG^{max}``, where the factor is exactly 1) — the same
        evaluation order as a monolithic array, so behavioral tiled and
        monolithic values agree bit for bit on dyadic images.  The device
        backend keeps the factor inside every tile's analog read, as the
        physical rail does.
        """
        r = np.asarray(sigma_r, dtype=np.float64)
        c = np.asarray(sigma_c, dtype=np.float64)
        if validate:
            check_drive(r, c, v_bg, self.n)
        driven = (c != 0.0).nonzero()[0]
        if driven.size == 0:
            return 0.0, _ZERO_STATS
        s = self.tile_size
        row_blocks = np.concatenate((r, self._row_pad)).reshape(self.grid, s)
        total = 0.0
        phases = conversions = slots = cells = fg_toggles = dl_toggles = 0
        for bj, cols in self._column_groups(driven):
            lo, hi = self._col_ptr[bj], self._col_ptr[bj + 1]
            if lo == hi:
                continue  # the whole column block is structurally zero
            local = cols - bj * s
            drive = c[cols]
            r_tiles = row_blocks[self._block_rows[lo:hi]]
            for value in self._read(lo, hi, r_tiles, local, drive, v_bg).tolist():
                total += value

            # Activity counters of every tile read, as DgFefetCrossbar
            # books them per activation: one phase per row sign present
            # (at least one), ADC columns per driven line, and mux slots
            # over the tile's own ADCs.
            fg_now = r_tiles.astype(np.int8)
            tile_phases = 1 + ((fg_now == 1).any(axis=1) & (fg_now == -1).any(axis=1))
            columns = local.size * self._line_columns[lo:hi]
            phases = max(phases, int(tile_phases.max()))
            conversions += int(tile_phases @ columns)
            slots = max(slots, int((tile_phases * -(-columns // self._num_adcs[lo:hi])).max()))
            cells += int((fg_now != 0).sum(axis=1) @ columns)
            dl_now = np.zeros(s, dtype=np.int8)
            dl_now[local] = drive
            fg_toggles += int(np.count_nonzero(fg_now != self._fg[lo:hi]))
            dl_toggles += int(np.count_nonzero(dl_now != self._dl[lo:hi]))
            self._fg[lo:hi] = fg_now
            self._dl[lo:hi] = dl_now
        if self.backend == "behavioral":
            total *= self.factor(v_bg)
        return total, ActivationStats(
            phases=phases,
            adc_conversions=conversions,
            mux_slots=slots,
            sa_codes=conversions,
            fg_toggles=fg_toggles,
            dl_toggles=dl_toggles,
            active_cells=cells,
            settle_time=phases * self._settle,
        )

    def _column_groups(self, driven: np.ndarray):
        """Yield ``(column block, driven columns)`` in ascending block order."""
        blocks = (driven // self.tile_size).tolist()
        start = 0
        for end in range(1, len(blocks) + 1):
            if end == len(blocks) or blocks[end] != blocks[start]:
                yield blocks[start], driven[start:end]
                start = end

    def _read(self, lo, hi, r_tiles, local, drive, v_bg) -> np.ndarray:
        """Sensed partial sums of stack tiles ``lo:hi`` on columns ``local``."""
        if self.backend == "device":
            offsets = self._vth_offsets
            return np.array([
                device_read(
                    self.nominal, self._image[p, local].T, r_tile, drive, v_bg,
                    lsb=self.lsb, bits=self.bits,
                    negative_plane=bool(self._planes[p] == 2),
                    vth_offsets=None if offsets is None else offsets[p][..., local],
                    variation=self.variation, wire=self.wire, adc=self.adc,
                    rng=self._rng,
                )
                for p, r_tile in zip(range(lo, hi), r_tiles)
            ])
        image = self._image[lo:hi, local]
        if self._weight_error is not None:
            image = image * (1.0 + self._weight_error[lo:hi, local])
        values = np.einsum("ks,ks->k", r_tiles, drive @ image)
        # One read-noise draw per tile, in read order.
        return self.variation.apply_read_noise(values, self._rng)

    def matvec(self, x, validate: bool = True) -> np.ndarray:
        """``Ĵ x`` for one input vector: the one-row :meth:`batch_matvec`."""
        v = np.asarray(x, dtype=np.float64)
        if validate and v.shape != (self.n,):
            raise ValueError(f"input vector must have shape ({self.n},)")
        return self.batch_matvec(v[None], validate=False)[0]

    def batch_matvec(self, x, validate: bool = True) -> np.ndarray:
        """Digitally-combined behavioral MVM: ``(R, n)`` products ``Ĵ x_r``.

        Every programmed tile evaluates its block's partial product
        ``Ĵ[r0:r1, c0:c1] · x[c0:c1]`` in parallel (read at
        ``V_BG^{max}``, where the shared-rail factor is exactly 1) and the
        partial sums are combined digitally per output row in row-major
        tile order — the extra adder-tree level of the sharded array.
        The replica batch is time-multiplexed onto the same grid: each
        tile multiplies every replica's column slice in one matmul.
        O(tiles · R · s²) work, no dense ``(n, n)`` assembly.  For dyadic
        stored images and ±1 drives every partial sum is exact, so the
        result is bit-identical to :meth:`stored_model`'s CSR SpMV — which
        is what lets the simulated-bifurcation engines run on the tiled
        machine (this is the ``matvec=`` hook
        :class:`~repro.core.sb.SbEngine` consumes) without a separate
        golden.  Inputs are not restricted to spins: bSB drives the array
        with continuous DAC levels.
        """
        v = np.asarray(x, dtype=np.float64)
        if validate and (v.ndim != 2 or v.shape[1] != self.n):
            raise ValueError(f"input batch must have shape (R, {self.n})")
        out = np.zeros(v.shape)
        for p, (r0, r1), (c0, c1) in self._tiles_row_major():
            out[:, r0:r1] += v[:, c0:c1] @ self._image[p, : c1 - c0, : r1 - r0]
        return out

    # ------------------------------------------------------------------
    # Programming cost
    # ------------------------------------------------------------------
    def programming_summary(self) -> dict[str, float]:
        """One-time programming cost over the *instantiated* tiles.

        Counts the logical cells of each programmed block — empty blocks
        hold no tile and contribute nothing, and the pad cells of edge
        tiles (rows/columns beyond ``n``) are never written, so neither
        inflates the totals.  ``tiles`` / ``grid_tiles`` report the sharded
        geometry alongside the cost.
        """
        return dict(self._summary)
