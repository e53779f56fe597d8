"""Recompute ``references.json``: best-known cuts of the fixed instances.

Run from the repository root (takes several minutes)::

    python3 perfbench/make_references.py

The torus ``T3000-0`` is bipartite with unit weights, so its reference is
the exact optimum (every edge cut).  The random instances use the
long multi-restart battery of :func:`repro.analysis.reference.
compute_reference_cut`, called directly so that no on-disk cache is read
or written.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from instances import REFERENCES, sweep_problems, tiled_problems  # noqa: E402

from repro.analysis.reference import (  # noqa: E402
    compute_reference_cut,
    exact_bipartite_optimum,
)


def main() -> None:
    problems = {**tiled_problems(), **sweep_problems()}
    out = {}
    for name, problem in problems.items():
        exact = exact_bipartite_optimum(problem)
        if exact is not None:
            out[name] = {"cut": exact, "source": "exact bipartite optimum"}
        else:
            cut = compute_reference_cut(problem, restarts=3, seed=90_000)
            out[name] = {
                "cut": cut,
                "source": "compute_reference_cut(restarts=3, seed=90000)",
            }
        print(name, out[name], flush=True)
    REFERENCES.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
