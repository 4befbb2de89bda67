"""Run one workload in this fresh interpreter and write its timings as JSON.

    python3 bench/child.py SPEC.json RESULT.json

SPEC names the `geyserstate` source directory, the CLI argument lists to run
in order through `geyserstate.cli.main`, and whether to trace.  `wall_s`
covers the CLI calls only; the import is measured separately as set-up.
A nonzero CLI exit code or an exception makes this process exit nonzero.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    import geyserstate.cli as cli

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"geyserstate imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 1
    run = cli.main
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        run = tracer.wrap(cli.main, "cli")
    codes = []
    start = time.perf_counter()
    for argv in spec["steps"]:
        codes.append(run(argv))
    wall_s = time.perf_counter() - start
    result = {"wall_s": wall_s, "exit_codes": codes}
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counters"] = dict(tracer.counters)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0 if all(code == 0 for code in codes) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
