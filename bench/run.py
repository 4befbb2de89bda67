"""geyserstate benchmark: one workload, end-to-end or traced.

    python3 bench/run.py --workload compare|staged [--seed 42]
                         [--seconds 5] [--trace 0|1]

Run from a checkout root; the library is imported from ./src.  Each
workload run is a fresh child interpreter calling `geyserstate.cli.main`
(see child.py); runs repeat until --seconds have passed, at least once.
Scratch output goes to .bench_work/ in the checkout.

BLAS runs on one thread.  --trace 0 reports the end-to-end metrics:
set-up time (median of three fresh `import geyserstate.cli`), workload
wall time and peak RSS (medians over runs), per-window decision latency
(decision.py), macro F1, and the share of runs that passed every check.  --trace 1 runs the workload once
untraced and once with the wrappers of tracing.py, and reports the
per-layer metrics plus the tracing overhead.

A run fails when the CLI exits nonzero or raises, when an artifact digest
differs from the first run of this workload and seed in this checkout, or
when the decision path does not reproduce the predictions file.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time

from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
CONFIG = os.path.join(BENCH_DIR, "default.cfg")

SETUP_SAMPLES = 3
# Decision latencies are taken in SETUP_SAMPLES + 1 chunks, one before and
# one after each set-up sample.  The p90 is the median of the chunks' own
# p90s (10 samples beyond each), so that a slow second on a shared machine
# that covers one chunk does not move it.
DECISION_CHUNK = 100
# every child must be reaped within this many seconds of the start
CHILD_DEADLINE_S = 170.0
POLL_S = 0.005


class RunFailed(Exception):
    pass


def spawn(argv: list[str], log_path: str, deadline: float) -> tuple[float, float]:
    """Run argv with ./src importable, output to log_path.

    Returns (elapsed seconds, peak RSS in MB of that child alone, from its
    own rusage).  Raises RunFailed on a nonzero exit or past the deadline.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, log_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
    reaped = 0
    try:
        while True:
            reaped, status, usage = os.wait4(pid, os.WNOHANG)
            if reaped:
                break
            if time.monotonic() > deadline:
                raise RunFailed(f"{argv[0]} passed the deadline")
            time.sleep(POLL_S)
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    elapsed = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise RunFailed(f"{' '.join(argv)} exited {code}; see {log_path}")
    return elapsed, usage.ru_maxrss / 1024.0


def digest_tree(root: str) -> dict[str, str]:
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def tree_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(root) for f in files
    )


def run_workload(name: str, seed: int, out_dir: str, trace: bool, deadline: float) -> dict:
    """One child run; returns its result JSON plus peak_rss_mb."""
    wl = WORKLOADS[name]
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    common = ["--config", CONFIG, "--seed", str(seed), "--out", out_dir]
    spec = {"src": SRC, "trace": trace, "steps": [[*step, *common] for step in wl.steps]}
    spec_path = out_dir + ".spec.json"
    result_path = out_dir + ".result.json"
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    _, rss = spawn([os.path.join(BENCH_DIR, "child.py"), spec_path, result_path],
                   out_dir + ".log", deadline)
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["peak_rss_mb"] = rss
    return result


def macro_f1(path: str) -> float:
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("macro,"):
                return float(line.split(",")[3])
    raise ValueError(f"no macro row in {path}")


def import_breakdown(log_path: str) -> dict[str, float]:
    """Seconds of `-X importtime` self time per package that caused it.

    Each module's self time goes to its nearest enclosing import (itself
    included) from numpy, scipy or geyserstate; the rest is not reported.
    """
    rows = []  # (depth, top-level package, self us), in the order printed
    with open(log_path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, _, name = line[len("import time:"):].split("|")
            if not self_us.strip().isdigit():
                continue  # column header
            depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
            rows.append((depth, name.strip().split(".")[0], int(self_us)))
    # importtime prints a module after everything it imported, one level
    # deeper; walk backwards so each row's ancestors are on the stack
    owners = {"numpy": 0, "scipy": 0, "geyserstate": 0}
    stack: list[tuple[int, str | None]] = []
    for depth, package, self_us in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        owner = next((p for _, p in reversed(stack) if p is not None), None)
        if owner is None and package in owners:
            owner = package
        stack.append((depth, package if package in owners else None))
        if owner is not None:
            owners[owner] += self_us
    return {f"setup.import_{p}_s": us / 1e6 for p, us in owners.items()}


def machine_info(seed: int) -> dict:
    import ctypes

    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas_threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {l.split()[-1] for l in fh if "openblas" in l and l.split()[-1].startswith("/")}
        for lib in sorted(libs):
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
                getter = getattr(ctypes.CDLL(lib), symbol, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    blas_threads = getter()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads,
        "seed": seed,
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, round(q / 100 * len(ordered)) - 1))]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so that spawn() kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # One BLAS thread here and in every child: the load is one process with
    # no extra threads, and the artifacts differ in the last bits between
    # thread counts (ar_model.txt with 1 and 2 OpenBLAS threads), so a fixed
    # count keeps the digests and F1 of a seed the same on every machine.
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

    if not os.path.isfile(os.path.join(SRC, "geyserstate", "cli.py")):
        print(f"error: no geyserstate sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from decision import DecisionPath

    wl = WORKLOADS[args.workload]
    deadline = time.monotonic() + CHILD_DEADLINE_S
    work = os.path.join(WORK, args.workload)
    os.makedirs(work, exist_ok=True)
    with open(CONFIG, "rb") as fh:
        definition = hashlib.sha256(fh.read() + repr(wl.steps).encode()).hexdigest()[:12]
    reference_path = os.path.join(work, f"digests-seed{args.seed}-{definition}.json")
    reference = None
    if os.path.exists(reference_path):
        with open(reference_path, encoding="utf-8") as fh:
            reference = json.load(fh)

    def planned_runs():
        """Yields True for a traced run; trace mode is one untraced, one traced."""
        if args.trace:
            yield from (False, True)
            return
        started = time.monotonic()
        yield False
        while time.monotonic() - started < args.seconds:
            yield False

    attempted = failed = 0
    runs: list[dict] = []
    checks: list[str] = []
    decision = None
    for traced in planned_runs():
        out_dir = os.path.join(work, "out_traced" if traced else "out")
        attempted += 1
        try:
            result = run_workload(args.workload, args.seed, out_dir, traced, deadline)
            digests = digest_tree(out_dir)
            if reference is None:
                reference = digests
            if digests != reference:
                changed = sorted(k for k in reference.keys() | digests.keys()
                                 if reference.get(k) != digests.get(k))
                raise RunFailed(f"artifacts differ from the first run: {changed[:5]}")
            if decision is None:
                decision = DecisionPath(out_dir, CONFIG, wl.held_out)
                bad = decision.mismatches(os.path.join(out_dir, wl.predictions))
                if bad:
                    raise RunFailed(
                        f"decision path disagrees with {wl.predictions} on "
                        f"{bad} of {len(decision.windows)} windows"
                    )
            result["f1"] = {m: macro_f1(os.path.join(out_dir, f)) for m, f in wl.reports.items()}
            runs.append(result)
            if not os.path.exists(reference_path):
                with open(reference_path, "w", encoding="utf-8") as fh:
                    json.dump(reference, fh)
        except Exception as exc:  # any failure of one run counts against it
            failed += 1
            checks.append(f"run {attempted}: {type(exc).__name__}: {exc}")
            if time.monotonic() > deadline:
                break
    if len(runs) < (2 if args.trace else 1) or decision is None:
        for line in checks:
            print(f"error: {line}", file=sys.stderr)
        return 1

    machine = machine_info(args.seed)
    print("machine: " + json.dumps(machine))
    print(f"workload={args.workload} seed={args.seed} runs={attempted} failed={failed}")
    for line in checks:
        print(f"check failed: {line}")

    # metric -> (value, unit)
    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        untraced, traced = runs
        importtime_log = os.path.join(work, "importtime.log")
        spawn(["-X", "importtime", "-c", "import geyserstate.cli"], importtime_log, deadline)
        from tracing import layer_metrics

        for key, value in layer_metrics(traced["spans"], traced["counters"]).items():
            unit = ("s" if key.endswith("_s") else "B" if "bytes" in key
                    else "ms" if "_ms_per_" in key else "count")
            metrics[key] = (value, unit)
        for key, value in import_breakdown(importtime_log).items():
            metrics[key] = (value, "s")
        metrics["cli.out_bytes"] = (float(tree_bytes(os.path.join(work, "out_traced"))), "B")
        metrics["trace.overhead_s"] = (traced["wall_s"] - untraced["wall_s"], "s")
        metrics["trace.spans"] = (float(len(traced["spans"])), "count")
    else:
        chunks = [decision.latencies_ms(DECISION_CHUNK)]
        setup = []
        for _ in range(SETUP_SAMPLES):
            setup.append(spawn(["-c", "import geyserstate.cli"],
                               os.path.join(work, "setup.log"), deadline)[0])
            chunks.append(decision.latencies_ms(DECISION_CHUNK))
        latencies = [ms for chunk in chunks for ms in chunk]
        metrics["setup_s"] = (statistics.median(setup), "s")
        metrics["wall_s"] = (statistics.median(r["wall_s"] for r in runs), "s")
        metrics["decision_ms_p50"] = (statistics.median(latencies), "ms")
        metrics["decision_ms_p90"] = (
            statistics.median(percentile(chunk, 90) for chunk in chunks), "ms"
        )
        metrics["peak_rss_mb"] = (statistics.median(r["peak_rss_mb"] for r in runs), "MB")
        metrics["success_rate"] = (1.0 - failed / attempted, "ratio")
        metrics["f1_rf_pef"] = (statistics.median(r["f1"]["f1_rf_pef"] for r in runs), "ratio")
        print(f"decision latency: {len(latencies)} samples over {len(decision.windows)} windows; "
              f"error_rate={failed / attempted:.4f} ({failed}/{attempted})")
        for name in sorted(set(wl.reports) - set(metrics)):
            print(f"{name} {statistics.median(r['f1'][name] for r in runs):.6f} ratio "
                  f"(this workload only; not in the metric set)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")

    record = {
        "machine": machine,
        "workload": args.workload,
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
