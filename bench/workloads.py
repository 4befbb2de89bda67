"""The benchmark's workloads: the CLI commands run on bench/default.cfg.

Each command gets `--config bench/default.cfg --seed <n> --out <dir>`
appended; the program sees nothing else.  Why each workload exists is
recorded in BENCHMARK.json and bench/README.md.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    # CLI argument lists run in order in one process
    steps: tuple[tuple[str, ...], ...]
    # predictions file the decision path must reproduce
    predictions: str
    # True: the pipeline's held-out windows; False: every window of pef.csv
    held_out: bool
    # macro-F1 metric name -> report file
    reports: dict[str, str]


WORKLOADS = {
    "compare": Workload(
        steps=(("pipeline", "--compare"),),
        predictions="predictions_rf_pef.csv",
        held_out=True,
        reports={
            "f1_rf_pef": "report_rf_pef.csv",
            "f1_rf_nopef": "report_rf_nopef.csv",
            "f1_dtw_pef": "report_dtw_pef.csv",
        },
    ),
    "staged": Workload(
        steps=(("synth",), ("filter",), ("train",), ("classify",), ("eval",)),
        predictions="predictions.csv",
        held_out=False,
        reports={"f1_rf_pef": "report.csv"},
    ),
}
