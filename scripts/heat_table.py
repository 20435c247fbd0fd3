#!/usr/bin/env python3
"""Score table for sine-mode node sets of the Dirichlet heat equation.

For each requested node set the average-energy score has the closed form
``p_k = k / sum(I)`` and the volumetric score is uniform.  With ``--verify``
each row is additionally recomputed by the solver and
cross-checked against the brute-force lattice oracle; the script then exits
1 if any row has ``max|dp| > 1e-9``, an unconverged solve or an oracle gap
above ``1e-9``.

Run:
    python scripts/heat_table.py
    python scripts/heat_table.py --rows "1,2,3,4;2,3,4,5" --verify
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from ctrlscore import (
    ObjectiveKind,
    closed_form_optimum,
    grid_oracle,
    heat_dirichlet_model,
    solve,
)
from ctrlscore.cli import DEFAULT_DEMO_ROWS, _parse_demo_rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", default=DEFAULT_DEMO_ROWS,
                        help="semicolon-separated node sets")
    parser.add_argument("--verify", action="store_true",
                        help="re-solve each row and cross-check with the "
                             "lattice oracle (step 0.02)")
    args = parser.parse_args(argv)

    begin = time.perf_counter()
    failed = 0
    for indices in _parse_demo_rows(args.rows):
        model = heat_dirichlet_model(indices)
        aecs = closed_form_optimum(ObjectiveKind.AECS, model)
        vcs = closed_form_optimum(ObjectiveKind.VCS, model)
        label = "{" + ",".join(str(i) for i in indices) + "}"
        print(f"I={label}")
        print("  aecs (closed form): "
              + "  ".join(f"{w:.6f}" for w in aecs.values))
        print("  vcs  (closed form): "
              + "  ".join(f"{w:.6f}" for w in vcs.values))
        if args.verify:
            result = solve(ObjectiveKind.AECS, model)
            gap = float(np.max(np.abs(result.weights.values - aecs.values)))
            line = (f"  solver agreement: max|dp|={gap:.2e} "
                    f"kkt={result.kkt_residual:.2e}")
            bad = gap > 1e-9 or not result.converged
            if len(indices) <= 4:
                _, oracle_value = grid_oracle(ObjectiveKind.AECS, model,
                                              step=0.02)
                oracle_gap = result.objective - oracle_value
                line += f"  oracle gap={oracle_gap:+.2e} (<= 0 expected)"
                bad = bad or oracle_gap > 1e-9
            print(line + ("  FAIL" if bad else ""))
            failed += bad
    print(f"done in {time.perf_counter() - begin:.2f}s")
    if failed:
        print(f"{failed} row(s) failed verification", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
