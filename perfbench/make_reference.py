"""Regenerate the packet-backend reference for the hybrid-grid workload.

The hybrid-grid workload checks every hybrid cell against the packet
backend's metrics for the same cell, within
``repro.fastpath.validate.TOLERANCES``.  Running the packet side costs
~90 s of packet simulation per 200-cell grid, so it is computed once
and stored under ``perfbench/reference/``.  Only the fields the comparison
reads are kept: every scalar metric, plus the retransmission-delay
series of stress cells.

Usage (from the repository root)::

    python3 perfbench/make_reference.py --workers 2
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from hybrid_grid import GRID_SEED, reference_path  # noqa: E402


def _run_packet(spec_dict: dict) -> dict:
    from repro.runner.cells import run_cell

    result = run_cell(dict(spec_dict, backend="packet"))
    series = {}
    if "retx_delays_us" in result.series:
        series["retx_delays_us"] = result.series["retx_delays_us"]
    return {"cell_id": result.cell_id, "metrics": result.metrics,
            "series": series}


def make_reference(grid_seed: int, workers: int) -> dict:
    from repro.fastpath.validate import default_grid

    specs = [s.to_dict() for s in default_grid(seed=grid_seed)]
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        cells = list(pool.map(_run_packet, specs, chunksize=1))
    return {"grid_seed": grid_seed,
            "cells": {cell.pop("cell_id"): cell for cell in cells}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2,
                        help="packet-backend worker processes")
    args = parser.parse_args(argv)
    reference = make_reference(GRID_SEED, args.workers)
    with open(reference_path(GRID_SEED), "w") as handle:
        json.dump(reference, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")
    print(f"grid {GRID_SEED}: {len(reference['cells'])} cells")
    return 0


if __name__ == "__main__":
    sys.exit(main())
