"""The repository's end-to-end benchmark: real ``Scenario`` -> ``RunReport`` runs.

Run from the repository root::

    python3 perfbench/run.py --workload decay_grid --seed 1 --seconds 30 --trace 0

``--trace 0`` is the plain run: it prints the end-to-end metrics.
``--trace 1`` is the traced run: it alternates plain passes with passes
whose layer entry points are wrapped (see ``perfbench/spans.py``) and
prints the per-layer metrics and ``trace.overhead``; its spans are
written to ``.perfbench_work/spans-<workload>.npz``.

Output: a provenance line, one line per metric (name, value, unit), and
as the last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``failed / attempted`` is
``failed_frac``. The program is imported from ``src/`` next to this
directory; without it the benchmark exits with status 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: fresh-interpreter set-ups per plain run; setup_s is their median
SETUP_SAMPLES = 7
#: seconds one set-up may take before the run is abandoned
SETUP_TIMEOUT_S = 60
#: metrics of the plain run's result line (failed_frac is attempted/failed)
END_TO_END = (
    "wall_s",
    "rounds_per_s",
    "run_s_p50",
    "scenarios_per_s",
    "cached_scenarios_per_s",
    "setup_s",
    "peak_rss_mb",
)


def _bootstrap() -> bool:
    """Put ``src/`` and the repository root on ``sys.path``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    sys.path[:0] = [str(SRC), str(ROOT)]
    return True


def measure_setup(name: str, seed: int, size: str, samples: int, workdir: str) -> float:
    """Median seconds of ``samples`` set-ups, each in its own interpreter
    and divided by the slowdown measured right after it."""
    probe = str(Path(__file__).resolve().parent / "setup_probe.py")
    times = []
    for index in range(samples):
        store = os.path.join(workdir, f"setup-{index}.sqlite")
        done = subprocess.run(
            [sys.executable, probe, name, str(seed), size, store],
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            check=True,
        )
        elapsed, slowdown = done.stdout.split()
        times.append(float(elapsed) / float(slowdown))
    return statistics.median(times)


def _git_rev() -> str:
    """The checked-out commit, or ``unknown`` outside a git checkout."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _src_digest() -> str:
    """SHA-256 over ``src/`` Python files: names the code without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import networkx
    import numpy

    import repro

    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_rev": _git_rev(),
        "src_sha256": _src_digest(),
        "repro": repro.__version__,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
    }


def benchmark(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str = "full",
    setup_samples: int = SETUP_SAMPLES,
) -> dict:
    """Measure one workload; returns the result object plus details.

    The result has ``correct``/``attempted``/``failed``/``metrics`` as
    printed, and ``table`` (every metric, ``failed_frac`` included, as
    ``(name, value, unit, note)``) for the human-readable lines.
    """
    from perfbench import harness, speed, workloads

    workload = workloads.build(name, seed, size)
    workdir = harness.workdir_for(str(ROOT))
    notes = {}
    try:
        # lazy imports and first-call costs land here, not in a timed pass
        warm_up = harness.Bench(workloads.build(name, seed, "tiny"), workdir)
        warm_up.one_pass(harness.PassTimes())
        bench = harness.Bench(workload, workdir)
        if trace:
            plain, traced, recorder = bench.traced(seconds)
            metrics = bench.per_layer(plain, traced, recorder)
            spans_path = os.path.join(ROOT, ".perfbench_work", f"spans-{name}.npz")
            count = recorder.save(spans_path)
            notes["trace.overhead"] = (
                f"{len(plain.cold_s)} plain + {len(traced.cold_s)} traced passes; "
                f"{count} spans in {os.path.relpath(spans_path, ROOT)}"
            )
            notes["runner.run_ms_p50"] = f"n={len(recorder.run_s)}"
            notes["runner.run_ms_p95"] = f"n={len(recorder.run_s)}"
            table = list(metrics.items())
        else:
            setup_s = measure_setup(name, seed, size, setup_samples, workdir)
            times = bench.plain(seconds)
            metrics = bench.end_to_end(times, setup_s)
            passes = f"median of {len(times.cold_s)} passes"
            notes["wall_s"] = passes
            notes["run_s_p50"] = (
                f"n={len(times.run_s)} scenarios x {len(times.cold_s)} passes"
                + (" (RunReport.wall_time_s)" if workload.batch else "")
            )
            warm = sum(len(chunk) for chunk in times.warm_s.values())
            notes["cached_scenarios_per_s"] = (
                f"{len(times.warm_s)} chunks, each fastest of {warm // max(1, len(times.warm_s))}"
            )
            notes["raw_wall_s"] = f"{passes}, not normalized"
            notes["slowdown"] = f"{passes}; reference loop / {speed.NOMINAL_S:g} s"
            notes["setup_s"] = f"median of {setup_samples}"
            table = list(metrics.items())
            metrics = {key: metrics[key] for key in END_TO_END}
    finally:
        harness.remove_workdir(workdir)
    return {
        "correct": bench.tally.failed == 0,
        "attempted": bench.tally.attempted,
        "failed": bench.tally.failed,
        "metrics": {
            key: {"value": _number(value), "unit": unit}
            for key, (value, unit) in metrics.items()
        },
        "table": [
            (key, value, unit, notes.get(key, "")) for key, (value, unit) in table
        ],
    }


def _number(value):
    """JSON has no nan: a metric that could not be measured is null."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not _bootstrap():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        known = ", ".join(workloads.WORKLOADS)
        print(f"perfbench: unknown workload {args.workload!r}; known: {known}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    header = provenance(args.workload, args.seed, args.seconds, trace)
    result = benchmark(args.workload, args.seed, args.seconds, trace)
    print("# provenance " + json.dumps(header, sort_keys=True))
    for key, value, unit, note in result.pop("table"):
        print(f"# {key:<34} {value:>16.6g} {unit:<9} {note}".rstrip())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
