"""Benchmark of the fbsde_multistep convergence-study API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ladder_1d --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all      # every workload of BENCHMARK.json

Each workload runs in fresh processes with BLAS/OpenMP pinned to one thread:
several set-up-only processes time set-up, then one process runs timed passes
over the workload's cells (``worker.py``).  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs untraced and traced passes and reports
the per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5  # set-up-only processes per run, plus the measuring process
RUN_TIMEOUT_S = 170.0
OUT_DIR = ".perfbench_out"


def _fail(message: str) -> int:
    print(f"perfbench: error: {message}", file=sys.stderr)
    return 2


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("FBSDE_NUM_WORKERS", None)
    env.pop("PYTHONPATH", None)
    # Set-up then compiles the package source every time, whether or not the
    # checkout has a bytecode cache, and nothing is written under src/.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class _Worker:
    """A worker process whose set-up time is read off its READY line."""

    def __init__(self, args: list[str], deadline: float):
        self.deadline = deadline
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), *args],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_child_env(),
            cwd=str(ROOT),
        )
        self.lines: list[str] = []
        try:
            for line in self.proc.stdout:
                if line.strip() == "READY":
                    break
                self.lines.append(line)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def finish(self) -> tuple[int, list[str], str]:
        """Wait for the worker (killing it at the deadline); returns code, stdout, stderr."""
        try:
            out, err = self.proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        finally:
            self.stop()
        return self.proc.returncode, self.lines + out.splitlines(), err

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.communicate()


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload; returns the result object (or raises RuntimeError)."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    common = ["--workload", workload, "--seed", str(seed)]
    setup = []
    for _ in range(SETUP_SAMPLES):
        probe = _Worker(common + ["--seconds", "0", "--setup-only"], deadline)
        code, _, err = probe.finish()
        if code != 0:
            raise RuntimeError(f"set-up process failed ({code}):\n{err}")
        setup.append(probe.setup_s)

    args = common + ["--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        (ROOT / OUT_DIR).mkdir(exist_ok=True)
        args += ["--trace-out", str(ROOT / OUT_DIR / f"spans-{workload}-seed{seed}.csv")]
    worker = _Worker(args, deadline)
    setup.append(worker.setup_s)
    code, lines, err = worker.finish()
    results = [line for line in lines if line.startswith("RESULT ")]
    if code != 0 or not results:
        raise RuntimeError(f"workload process failed ({code}):\n{err}")
    for line in lines:
        if not line.startswith("RESULT "):
            print(line)
    data = json.loads(results[-1][len("RESULT "):])
    data["setup_s"] = setup
    return data


def end_to_end(data: dict) -> dict:
    cells = data["cells"]
    failed = len(data["failures"])
    return {
        "wall_s": (statistics.median(data["pass_s"]), "s"),
        "setup_s": (statistics.median(data["setup_s"]), "s"),
        "peak_rss_mb": (data["peak_rss_mb"], "MB"),
        "err_y_geomean": (_geomean(data["err_y"]), "1"),
        "err_z_geomean": (_geomean(data["err_z"]), "1"),
        "cells_ok": (cells - failed, "count"),
    }


def per_layer(data: dict, seed_misses: list[str]) -> tuple[dict, list[str]]:
    """Per-layer metrics; those whose boundary went unhit are unmeasured."""
    metrics, unmeasured = {}, []
    for name, (value, unit, boundary) in data["layers"].items():
        if boundary not in data["hit"] and boundary not in seed_misses:
            unmeasured.append(name)
            metrics[name] = (None, unit)
        else:
            metrics[name] = (value, unit)
    overhead = statistics.median(data["traced_pass_s"]) - statistics.median(data["pass_s"])
    metrics["trace_overhead_s"] = (overhead, "s")
    return metrics, unmeasured


def _geomean(values: list[float]) -> float | None:
    if not values:  # every cell failed
        return None
    return 10.0 ** (sum(math.log10(v) for v in values) / len(values))


def environment() -> dict:
    """Machine, library and source identity recorded with every run."""
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "loadavg": os.getloadavg(),
        "source": _source_id(),
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            sizes[f"L{level}{kind[0].lower()}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def _source_id() -> str:
    """Git commit when the checkout has one, else a digest of the package source."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        digest = hashlib.sha256()
        for path in sorted((ROOT / "src").rglob("*.py")):
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
        return "src-sha256:" + digest.hexdigest()[:16]


def report(workload: str, seed: int, seconds: float, trace: int, workloads: dict) -> dict:
    """Run one workload and print its metrics; returns the result object."""
    data = run_workload(workload, seed, seconds, trace)
    failures = data["failures"]
    for label, reason in sorted(failures.items()):
        print(f"FAILED {workload} {label}: {reason}")
    for label, (cr_y, cr_z) in sorted(data["rates"].items()):
        print(f"rate {label}: CR(Y) {cr_y:.3f}  CR(Z) {cr_z:.3f}")
    for label, (err_y, err_z) in data["errors"].items():
        print(f"cell {label}: err_y {' '.join(f'{e:.3e}' for e in err_y)}"
              f"  err_z {' '.join(f'{e:.3e}' for e in err_z)}")
    unmeasured = []
    if trace:
        metrics, unmeasured = per_layer(data, workloads[workload]["seed_misses"])
    else:
        metrics = end_to_end(data)
    samples = {key: data.get(key) for key in ("pass_s", "traced_pass_s", "setup_s")}
    print(f"{workload}: {json.dumps(samples)}, numpy {data['numpy']}, blas {data['blas']}")
    for name, (value, unit) in metrics.items():
        shown = "unmeasured" if value is None else f"{value:.6g}"
        print(f"{workload} {name} = {shown} {unit}")
    for name in unmeasured:
        print(f"UNMEASURED {workload} {name}: its boundary recorded no call")
    correct = data["deterministic"] and not failures
    return {
        "correct": correct,
        "attempted": data["cells"],
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1, help="permutes the cell order")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fbsde_multistep" / "__init__.py").is_file():
        return _fail(f"no package source at {ROOT / 'src' / 'fbsde_multistep'}")
    try:
        config = json.loads((ROOT / "BENCHMARK.json").read_text())
        workloads = json.loads((HERE / "workloads.json").read_text())
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read the benchmark definition: {exc}")
    seconds = args.seconds if args.seconds is not None else config["run_seconds"]
    names = [w["name"] for w in config["workloads"]] if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in workloads]
    if unknown:
        return _fail(f"unknown workload(s) {unknown}; known: {sorted(workloads)}")

    # A terminated run unwinds normally, so its workers are stopped and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    print("environment " + json.dumps(environment()))
    results = {}
    for name in names:
        try:
            results[name] = report(name, args.seed, seconds, args.trace, workloads)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            return _fail(f"{name}: {exc}")
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items() for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
