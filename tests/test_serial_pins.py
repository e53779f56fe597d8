"""Pinned fixed-seed results of the serial annealers, row by row.

The in-situ annealer, the direct-E SA baseline and MESA (which wraps SA)
share one serial Algorithm-1 loop; only the accept step differs.  The
table below fixes that loop's observable behaviour on one dyadic model
with fields, across solver × coupling backend × flip rank × proposal mode
× permutation, plus the hardware hooks (``encoder``, ``evaluator``), the
non-default schedules and ``track_best=False``.  Each row records the
final and best energies, the acceptance counters, hashes of the returned
configurations, of ``energy_trace``/``best_trace`` (``record_trace=True``)
and of the ``iteration_hook`` call sequence.

Couplings are ±1/4 and fields ±1/2, so every sum is exact in any order:
the rows are backend-independent and a refactor that changes any of them
changed the RNG draw order, the accept rule or the bookkeeping.

Regenerate (only as a deliberate, documented step) with::

    PYTHONPATH=src python -m tests.test_serial_pins
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import (
    DirectEAnnealer,
    FractionalFactor,
    InSituAnnealer,
    LinearSchedule,
    MesaAnnealer,
    ReverseVbgSchedule,
    VbgEncoder,
)
from repro.ising import PackedIsingModel, SparseIsingModel
from repro.utils.rng import ensure_rng

N = 24
ITERATIONS = 150
SEED = 31


def pin_model(backend: str):
    """The fixed 24-spin ±1/4-coupling model with ±1/2 fields."""
    base = SparseIsingModel.random(N, degree=4.0, seed=17)
    indptr, indices, data = base.csr_arrays()
    data = np.sign(data) * 0.25
    fields = np.sign(ensure_rng(18).normal(size=N)) * 0.5
    if backend == "packed":
        return PackedIsingModel(indptr, indices, data, fields, 0.375, "pin")
    sparse = SparseIsingModel(indptr, indices, data, fields, 0.375, "pin")
    return sparse.to_dense() if backend == "dense" else sparse


def _digest(arr) -> str:
    data = np.ascontiguousarray(np.asarray(arr, dtype=np.float64)).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def _exact_evaluator(model):
    """A deterministic ``evaluator`` hook: ``σ_rᵀJσ_c`` plus a V_BG tilt."""
    J = model.J

    def evaluate(sigma, flips, sigma_r, sigma_c, v_bg):
        return float(sigma_r @ J @ sigma_c) * (1.0 + v_bg)

    return evaluate


def _row_specs():
    """Row key -> (method, backend, flips, constructor kwargs, permuted)."""
    specs = {}
    for method in ("insitu", "sa", "mesa"):
        for backend in ("dense", "sparse", "packed"):
            for t in (1, 3):
                proposals = ("scan", "random") if method != "mesa" else (None,)
                for proposal in proposals:
                    for permuted in (False, True):
                        kwargs = {} if proposal is None else {"proposal": proposal}
                        key = "-".join(
                            [method, backend, f"t{t}", proposal or "default",
                             "perm" if permuted else "id"]
                        )
                        specs[key] = (method, backend, t, kwargs, permuted)
    factor = FractionalFactor()
    extras = {
        "insitu-encoder-t3": ("insitu", "dense", 3,
                              {"encoder": VbgEncoder(factor)}, False),
        "insitu-evaluator-t1": ("insitu", "dense", 1,
                                {"evaluator": "exact"}, False),
        "insitu-encoder-evaluator-t3": (
            "insitu", "dense", 3,
            {"encoder": VbgEncoder(factor), "evaluator": "exact"}, True),
        "insitu-reverse-vbg-t1": (
            "insitu", "sparse", 1,
            {"schedule": ReverseVbgSchedule(ITERATIONS)}, False),
        "insitu-no-best-t3": ("insitu", "packed", 3,
                              {"track_best": False}, False),
        "sa-linear-t1": ("sa", "sparse", 1,
                         {"schedule": LinearSchedule(ITERATIONS, 2.0, 0.01)},
                         True),
        "sa-no-best-t3": ("sa", "dense", 3, {"track_best": False}, False),
    }
    specs.update(extras)
    return specs


ROW_SPECS = _row_specs()


def run_row(key: str):
    """Run one pinned configuration and return its observable tuple."""
    method, backend, t, kwargs, permuted = ROW_SPECS[key]
    model = pin_model(backend)
    kwargs = dict(kwargs)
    perm = None
    if permuted:
        perm = ensure_rng(5).permutation(N)
        model = model.permuted(perm)
        kwargs["permutation"] = perm
    if kwargs.get("evaluator") == "exact":
        kwargs["evaluator"] = _exact_evaluator(model)
    if method == "mesa":
        result = MesaAnnealer(
            model, flips_per_iteration=t, seed=SEED, **kwargs
        ).run(ITERATIONS)
        trace_hash = hook_hash = None
    else:
        calls = []
        cls = InSituAnnealer if method == "insitu" else DirectEAnnealer
        result = cls(
            model, flips_per_iteration=t, seed=SEED, record_trace=True,
            iteration_hook=lambda *args: calls.append(args), **kwargs,
        ).run(ITERATIONS)
        trace_hash = _digest(
            np.concatenate([result.energy_trace, result.best_trace])
        )
        hook_hash = _digest(np.array(calls, dtype=np.float64))
        assert len(calls) == ITERATIONS
    return (
        result.best_energy,
        result.energy,
        result.accepted,
        result.uphill_accepted,
        result.uphill_proposals,
        result.exponent_evaluations,
        _digest(result.best_sigma),
        _digest(result.sigma),
        trace_hash,
        hook_hash,
    )


#: key -> (best_energy, energy, accepted, uphill_accepted, uphill_proposals,
#: exponent_evaluations, best_sigma hash, sigma hash, trace hash, hook hash),
#: recorded before the serial loops were merged.
PINNED = {
    'insitu-dense-t1-random-id': (
        -15.625, -4.625, 52, 12, 110, 0,
        'f4824616ba778609', '41eb535a8c0fa321', '14a5f1c3c84123c4', '59deb52b469d6e7d',
    ),
    'insitu-dense-t1-random-perm': (
        -15.625, -4.625, 52, 12, 110, 0,
        'f4824616ba778609', '41eb535a8c0fa321', '14a5f1c3c84123c4', '59deb52b469d6e7d',
    ),
    'insitu-dense-t1-scan-id': (
        -17.625, 1.375, 47, 13, 116, 0,
        '9c5b3d660a10091d', '24725af7105ea91e', 'd8f2ef6c4fe6a628', '9ba9515eea7928e3',
    ),
    'insitu-dense-t1-scan-perm': (
        -17.625, 1.375, 47, 13, 116, 0,
        '9c5b3d660a10091d', '24725af7105ea91e', 'd8f2ef6c4fe6a628', '9ba9515eea7928e3',
    ),
    'insitu-dense-t3-random-id': (
        -11.625, 1.375, 24, 8, 134, 0,
        '272561b0d56dbe91', 'b3d3f80db2f3f8bd', '6346175458f8d4fd', '56d455f20ef3f434',
    ),
    'insitu-dense-t3-random-perm': (
        -11.625, 1.375, 24, 8, 134, 0,
        '272561b0d56dbe91', 'b3d3f80db2f3f8bd', '6346175458f8d4fd', '56d455f20ef3f434',
    ),
    'insitu-dense-t3-scan-id': (
        -16.625, -3.625, 22, 10, 138, 0,
        '0a225dde9593ff27', '3c27abce8f7bacfe', '10023fd6c1fd9ec3', '03b715dae7c7a6b0',
    ),
    'insitu-dense-t3-scan-perm': (
        -16.625, -3.625, 22, 10, 138, 0,
        '0a225dde9593ff27', '3c27abce8f7bacfe', '10023fd6c1fd9ec3', '03b715dae7c7a6b0',
    ),
    'insitu-encoder-evaluator-t3': (
        -14.625, -12.625, 7, 1, 141, 0,
        '4a9945c37a6682f5', 'f9dfa6d679f10c5b', '1dad8a7eedef475b', 'a54aed319432e885',
    ),
    'insitu-encoder-t3': (
        -16.625, -3.625, 22, 10, 138, 0,
        '0a225dde9593ff27', '3c27abce8f7bacfe', '10023fd6c1fd9ec3', '03b715dae7c7a6b0',
    ),
    'insitu-evaluator-t1': (
        -15.625, -13.625, 11, 2, 121, 0,
        'a59df9a63a6113fa', '36add851820044c1', 'e3fa6b4472a64d04', 'a461646bb3ab7a62',
    ),
    'insitu-no-best-t3': (
        -3.625, -3.625, 22, 10, 138, 0,
        '3c27abce8f7bacfe', '3c27abce8f7bacfe', '4e1726fe9ab386ba', '03b715dae7c7a6b0',
    ),
    'insitu-packed-t1-random-id': (
        -15.625, -4.625, 52, 12, 110, 0,
        'f4824616ba778609', '41eb535a8c0fa321', '14a5f1c3c84123c4', '59deb52b469d6e7d',
    ),
    'insitu-packed-t1-random-perm': (
        -15.625, -4.625, 52, 12, 110, 0,
        'f4824616ba778609', '41eb535a8c0fa321', '14a5f1c3c84123c4', '59deb52b469d6e7d',
    ),
    'insitu-packed-t1-scan-id': (
        -17.625, 1.375, 47, 13, 116, 0,
        '9c5b3d660a10091d', '24725af7105ea91e', 'd8f2ef6c4fe6a628', '9ba9515eea7928e3',
    ),
    'insitu-packed-t1-scan-perm': (
        -17.625, 1.375, 47, 13, 116, 0,
        '9c5b3d660a10091d', '24725af7105ea91e', 'd8f2ef6c4fe6a628', '9ba9515eea7928e3',
    ),
    'insitu-packed-t3-random-id': (
        -11.625, 1.375, 24, 8, 134, 0,
        '272561b0d56dbe91', 'b3d3f80db2f3f8bd', '6346175458f8d4fd', '56d455f20ef3f434',
    ),
    'insitu-packed-t3-random-perm': (
        -11.625, 1.375, 24, 8, 134, 0,
        '272561b0d56dbe91', 'b3d3f80db2f3f8bd', '6346175458f8d4fd', '56d455f20ef3f434',
    ),
    'insitu-packed-t3-scan-id': (
        -16.625, -3.625, 22, 10, 138, 0,
        '0a225dde9593ff27', '3c27abce8f7bacfe', '10023fd6c1fd9ec3', '03b715dae7c7a6b0',
    ),
    'insitu-packed-t3-scan-perm': (
        -16.625, -3.625, 22, 10, 138, 0,
        '0a225dde9593ff27', '3c27abce8f7bacfe', '10023fd6c1fd9ec3', '03b715dae7c7a6b0',
    ),
    'insitu-reverse-vbg-t1': (
        -17.625, -17.625, 48, 13, 115, 0,
        '4a7e48782ac5afed', 'bdab4c1da55496a5', 'd03cab03e2de8ec4', '43bf0a1726aecbe3',
    ),
    'insitu-sparse-t1-random-id': (
        -15.625, -4.625, 52, 12, 110, 0,
        'f4824616ba778609', '41eb535a8c0fa321', '14a5f1c3c84123c4', '59deb52b469d6e7d',
    ),
    'insitu-sparse-t1-random-perm': (
        -15.625, -4.625, 52, 12, 110, 0,
        'f4824616ba778609', '41eb535a8c0fa321', '14a5f1c3c84123c4', '59deb52b469d6e7d',
    ),
    'insitu-sparse-t1-scan-id': (
        -17.625, 1.375, 47, 13, 116, 0,
        '9c5b3d660a10091d', '24725af7105ea91e', 'd8f2ef6c4fe6a628', '9ba9515eea7928e3',
    ),
    'insitu-sparse-t1-scan-perm': (
        -17.625, 1.375, 47, 13, 116, 0,
        '9c5b3d660a10091d', '24725af7105ea91e', 'd8f2ef6c4fe6a628', '9ba9515eea7928e3',
    ),
    'insitu-sparse-t3-random-id': (
        -11.625, 1.375, 24, 8, 134, 0,
        '272561b0d56dbe91', 'b3d3f80db2f3f8bd', '6346175458f8d4fd', '56d455f20ef3f434',
    ),
    'insitu-sparse-t3-random-perm': (
        -11.625, 1.375, 24, 8, 134, 0,
        '272561b0d56dbe91', 'b3d3f80db2f3f8bd', '6346175458f8d4fd', '56d455f20ef3f434',
    ),
    'insitu-sparse-t3-scan-id': (
        -16.625, -3.625, 22, 10, 138, 0,
        '0a225dde9593ff27', '3c27abce8f7bacfe', '10023fd6c1fd9ec3', '03b715dae7c7a6b0',
    ),
    'insitu-sparse-t3-scan-perm': (
        -16.625, -3.625, 22, 10, 138, 0,
        '0a225dde9593ff27', '3c27abce8f7bacfe', '10023fd6c1fd9ec3', '03b715dae7c7a6b0',
    ),
    'mesa-dense-t1-default-id': (
        -17.625, -14.625, 64, 21, 107, 107,
        '1446ca68070a285a', 'f3221bb10e3d0a24', None, None,
    ),
    'mesa-dense-t1-default-perm': (
        -17.625, -14.625, 64, 21, 107, 107,
        '1446ca68070a285a', 'f3221bb10e3d0a24', None, None,
    ),
    'mesa-dense-t3-default-id': (
        -16.625, -16.625, 40, 13, 123, 123,
        '5d5dad24c1cfe788', '5d5dad24c1cfe788', None, None,
    ),
    'mesa-dense-t3-default-perm': (
        -16.625, -16.625, 40, 13, 123, 123,
        '5d5dad24c1cfe788', '5d5dad24c1cfe788', None, None,
    ),
    'mesa-packed-t1-default-id': (
        -17.625, -14.625, 64, 21, 107, 107,
        '1446ca68070a285a', 'f3221bb10e3d0a24', None, None,
    ),
    'mesa-packed-t1-default-perm': (
        -17.625, -14.625, 64, 21, 107, 107,
        '1446ca68070a285a', 'f3221bb10e3d0a24', None, None,
    ),
    'mesa-packed-t3-default-id': (
        -16.625, -16.625, 40, 13, 123, 123,
        '5d5dad24c1cfe788', '5d5dad24c1cfe788', None, None,
    ),
    'mesa-packed-t3-default-perm': (
        -16.625, -16.625, 40, 13, 123, 123,
        '5d5dad24c1cfe788', '5d5dad24c1cfe788', None, None,
    ),
    'mesa-sparse-t1-default-id': (
        -17.625, -14.625, 64, 21, 107, 107,
        '1446ca68070a285a', 'f3221bb10e3d0a24', None, None,
    ),
    'mesa-sparse-t1-default-perm': (
        -17.625, -14.625, 64, 21, 107, 107,
        '1446ca68070a285a', 'f3221bb10e3d0a24', None, None,
    ),
    'mesa-sparse-t3-default-id': (
        -16.625, -16.625, 40, 13, 123, 123,
        '5d5dad24c1cfe788', '5d5dad24c1cfe788', None, None,
    ),
    'mesa-sparse-t3-default-perm': (
        -16.625, -16.625, 40, 13, 123, 123,
        '5d5dad24c1cfe788', '5d5dad24c1cfe788', None, None,
    ),
    'sa-dense-t1-random-id': (
        -11.625, -11.625, 84, 28, 94, 94,
        '0576a790004fd41e', 'cc4458f239ff8dd6', '12b3800ea2760972', '75c3c38ccd59752f',
    ),
    'sa-dense-t1-random-perm': (
        -11.625, -11.625, 84, 28, 94, 94,
        '0576a790004fd41e', 'cc4458f239ff8dd6', '12b3800ea2760972', '75c3c38ccd59752f',
    ),
    'sa-dense-t1-scan-id': (
        -16.625, -16.625, 76, 26, 100, 100,
        'cfa8ac815321c4ec', 'cfa8ac815321c4ec', 'efa46137abebd901', '920b3ec051e70533',
    ),
    'sa-dense-t1-scan-perm': (
        -16.625, -16.625, 76, 26, 100, 100,
        'cfa8ac815321c4ec', 'cfa8ac815321c4ec', 'efa46137abebd901', '920b3ec051e70533',
    ),
    'sa-dense-t3-random-id': (
        -12.625, -10.625, 71, 26, 105, 105,
        'bdcb181bf02ce37f', 'b1a0f98f9be9ca82', 'ceda4094ca841cf5', '1322939cb8709686',
    ),
    'sa-dense-t3-random-perm': (
        -12.625, -10.625, 71, 26, 105, 105,
        'bdcb181bf02ce37f', 'b1a0f98f9be9ca82', 'ceda4094ca841cf5', '1322939cb8709686',
    ),
    'sa-dense-t3-scan-id': (
        -11.625, -11.625, 71, 26, 105, 105,
        'afeaa1f5898df7a9', '69354e9c1f0645f2', '2ddf843bbd1a89c9', 'da05c7f3ed28cb5d',
    ),
    'sa-dense-t3-scan-perm': (
        -11.625, -11.625, 71, 26, 105, 105,
        'afeaa1f5898df7a9', '69354e9c1f0645f2', '2ddf843bbd1a89c9', 'da05c7f3ed28cb5d',
    ),
    'sa-linear-t1': (
        -16.625, -16.625, 62, 19, 107, 107,
        'dd4b17cca3fee4ad', 'dd4b17cca3fee4ad', '969fd901908065c3', '2b63afd7a591050c',
    ),
    'sa-no-best-t3': (
        -10.625, -10.625, 71, 26, 105, 105,
        'b1a0f98f9be9ca82', 'b1a0f98f9be9ca82', '6525ff48c7d289fd', '1322939cb8709686',
    ),
    'sa-packed-t1-random-id': (
        -11.625, -11.625, 84, 28, 94, 94,
        '0576a790004fd41e', 'cc4458f239ff8dd6', '12b3800ea2760972', '75c3c38ccd59752f',
    ),
    'sa-packed-t1-random-perm': (
        -11.625, -11.625, 84, 28, 94, 94,
        '0576a790004fd41e', 'cc4458f239ff8dd6', '12b3800ea2760972', '75c3c38ccd59752f',
    ),
    'sa-packed-t1-scan-id': (
        -16.625, -16.625, 76, 26, 100, 100,
        'cfa8ac815321c4ec', 'cfa8ac815321c4ec', 'efa46137abebd901', '920b3ec051e70533',
    ),
    'sa-packed-t1-scan-perm': (
        -16.625, -16.625, 76, 26, 100, 100,
        'cfa8ac815321c4ec', 'cfa8ac815321c4ec', 'efa46137abebd901', '920b3ec051e70533',
    ),
    'sa-packed-t3-random-id': (
        -12.625, -10.625, 71, 26, 105, 105,
        'bdcb181bf02ce37f', 'b1a0f98f9be9ca82', 'ceda4094ca841cf5', '1322939cb8709686',
    ),
    'sa-packed-t3-random-perm': (
        -12.625, -10.625, 71, 26, 105, 105,
        'bdcb181bf02ce37f', 'b1a0f98f9be9ca82', 'ceda4094ca841cf5', '1322939cb8709686',
    ),
    'sa-packed-t3-scan-id': (
        -11.625, -11.625, 71, 26, 105, 105,
        'afeaa1f5898df7a9', '69354e9c1f0645f2', '2ddf843bbd1a89c9', 'da05c7f3ed28cb5d',
    ),
    'sa-packed-t3-scan-perm': (
        -11.625, -11.625, 71, 26, 105, 105,
        'afeaa1f5898df7a9', '69354e9c1f0645f2', '2ddf843bbd1a89c9', 'da05c7f3ed28cb5d',
    ),
    'sa-sparse-t1-random-id': (
        -11.625, -11.625, 84, 28, 94, 94,
        '0576a790004fd41e', 'cc4458f239ff8dd6', '12b3800ea2760972', '75c3c38ccd59752f',
    ),
    'sa-sparse-t1-random-perm': (
        -11.625, -11.625, 84, 28, 94, 94,
        '0576a790004fd41e', 'cc4458f239ff8dd6', '12b3800ea2760972', '75c3c38ccd59752f',
    ),
    'sa-sparse-t1-scan-id': (
        -16.625, -16.625, 76, 26, 100, 100,
        'cfa8ac815321c4ec', 'cfa8ac815321c4ec', 'efa46137abebd901', '920b3ec051e70533',
    ),
    'sa-sparse-t1-scan-perm': (
        -16.625, -16.625, 76, 26, 100, 100,
        'cfa8ac815321c4ec', 'cfa8ac815321c4ec', 'efa46137abebd901', '920b3ec051e70533',
    ),
    'sa-sparse-t3-random-id': (
        -12.625, -10.625, 71, 26, 105, 105,
        'bdcb181bf02ce37f', 'b1a0f98f9be9ca82', 'ceda4094ca841cf5', '1322939cb8709686',
    ),
    'sa-sparse-t3-random-perm': (
        -12.625, -10.625, 71, 26, 105, 105,
        'bdcb181bf02ce37f', 'b1a0f98f9be9ca82', 'ceda4094ca841cf5', '1322939cb8709686',
    ),
    'sa-sparse-t3-scan-id': (
        -11.625, -11.625, 71, 26, 105, 105,
        'afeaa1f5898df7a9', '69354e9c1f0645f2', '2ddf843bbd1a89c9', 'da05c7f3ed28cb5d',
    ),
    'sa-sparse-t3-scan-perm': (
        -11.625, -11.625, 71, 26, 105, 105,
        'afeaa1f5898df7a9', '69354e9c1f0645f2', '2ddf843bbd1a89c9', 'da05c7f3ed28cb5d',
    ),
}


@pytest.mark.parametrize("key", sorted(ROW_SPECS))
def test_serial_row_matches_pin(key):
    assert run_row(key) == PINNED[key]


def test_pin_table_covers_every_row():
    assert set(PINNED) == set(ROW_SPECS)


if __name__ == "__main__":
    print("PINNED = {")
    for key in sorted(ROW_SPECS):
        row = run_row(key)
        print(f"    {key!r}: (")
        print("        " + ", ".join(map(repr, row[:6])) + ",")
        print("        " + ", ".join(map(repr, row[6:])) + ",")
        print("    ),")
    print("}")
