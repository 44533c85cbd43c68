"""Unified experiment-runner layer: specs → harness → sweeps.

Three layers (see DESIGN.md "Runner layer"):

1. :class:`ExperimentSpec` / :class:`SweepSpec` — declarative,
   serializable descriptions of one evaluation-grid cell / one grid;
2. :class:`TrialHarness` + :class:`CellResult` — the shared
   launch/watchdog/deadline/collect loop and the unified per-cell result
   schema every experiment emits;
3. :class:`SweepRunner` — serial or multi-process execution with
   deterministic per-cell seeding and JSONL checkpoint/resume.

Typical usage::

    sweep = SweepSpec(
        name="fig10",
        base=ExperimentSpec(kind="fct", flow_size=143, n_trials=3000, seed=10),
        axes={"transport": ["dctcp", "rdma"],
              "scenario": ["noloss", "loss", "lg", "lgnb"]},
    )
    results = SweepRunner(sweep, workers=4, checkpoint="fig10.jsonl").run()
"""

from .cells import experiment_kinds, register, run_cell
from .harness import CellResult, TrialHarness
from .spec import ExperimentSpec, SweepSpec
from .sweep import SweepRunner, load_checkpoint

__all__ = [
    "ExperimentSpec", "SweepSpec",
    "CellResult", "TrialHarness",
    "register", "run_cell", "experiment_kinds",
    "SweepRunner", "load_checkpoint",
]
