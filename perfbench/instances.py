"""Fixed benchmark instances and their stored reference cuts.

The instances that carry a ``cut_ratio`` reference are fixed here, not
drawn from the workload seed: their best-known cuts are stored in
``references.json`` (written by ``make_references.py``), so the ratio has
a constant denominator and a pure speed-up leaves it unchanged.  The
workload seed drives the anneal seeds (and, for ``serve-open``, the whole
job mix).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.ising import build_instance, paper_instance_suite
from repro.ising.gset import random_edge_set
from repro.ising.maxcut import MaxCutProblem

REFERENCES = Path(__file__).resolve().parent / "references.json"

#: The paper's deployment instances: G22-class random and G48-class torus.
TILED_INSTANCES = ("R2000-0", "T3000-0")

#: The replica-sweep graph: 20k nodes, average degree 6.
SWEEP_NODES = 20_000
SWEEP_EDGES = 60_000
SWEEP_GRAPH_SEED = 20_011
SWEEP_WEIGHT_SEED = 20_012
#: Mixed dyadic magnitudes keep the model on the sparse float backend
#: while every energy stays exactly representable.
SWEEP_DYADIC_WEIGHTS = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])


def tiled_problems() -> dict[str, MaxCutProblem]:
    """The two paper-suite instances of the ``tiled-gset`` workload."""
    specs = {spec.name: spec for spec in paper_instance_suite()}
    return {name: build_instance(specs[name]) for name in TILED_INSTANCES}


def sweep_problems() -> dict[str, MaxCutProblem]:
    """The ``replica-sweep`` graph with ±1 and with mixed dyadic weights."""
    edges, signs = random_edge_set(
        SWEEP_NODES, SWEEP_EDGES, weighted=True, seed=SWEEP_GRAPH_SEED
    )
    rng = np.random.default_rng(SWEEP_WEIGHT_SEED)
    dyadic = rng.choice(SWEEP_DYADIC_WEIGHTS, size=SWEEP_EDGES)
    return {
        "sweep-pm1": MaxCutProblem(SWEEP_NODES, edges, signs, name="sweep-pm1"),
        "sweep-dyadic": MaxCutProblem(
            SWEEP_NODES, edges, dyadic, name="sweep-dyadic"
        ),
    }


def reference_cuts() -> dict[str, float]:
    """Stored best-known cuts keyed by instance name."""
    data = json.loads(REFERENCES.read_text())
    return {name: float(entry["cut"]) for name, entry in data.items()}
