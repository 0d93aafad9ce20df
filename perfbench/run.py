"""Benchmark for mpf: closed-loop workloads with one caller each.

Run from the repository root:

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced cycles of ops and prints the per-layer metrics.
Every reported time is scaled by the host's speed around it (see
``perfbench/hostspeed.py``); the wall times are printed beside them.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Spans and a fuller report go
to ``.bench_out/`` in the repository root.  Workload details (why each
was chosen, its work unit, the layers it loads and the layer-to-metric
map) are in ``perfbench/workloads.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_RUNS = 11  # set-ups per run in fresh interpreters, spread through the timed ops
HARD_STOP_S = 150.0  # keep a run well inside the 180 s limit whatever min_cycles asks

sys.path.insert(0, str(HERE))
# mpf does no BLAS work, but numpy's import starts one BLAS thread per core,
# and on a small shared host that start-up made set-up times swing by half.
# Set before numpy is imported here; set-up probes and pool workers inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from hostspeed import HostSpeed  # noqa: E402
from tracing import LAYERS, OP, TABLES, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def load_mpf():
    """Import mpf from this checkout's src/, never from an installed copy."""
    if not (SRC / "mpf" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'mpf'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import mpf
    import mpf.cli  # noqa: F401  (the package does not import its CLI)

    if Path(mpf.__file__).resolve().parent != (SRC / "mpf").resolve():
        raise SystemExit(f"error: imported mpf from {mpf.__file__}, not from {SRC}")
    return mpf


def setup(name: str, seed: int, workdir: Path, tracer=None):
    """Everything before the first timed op: import, inputs, warm-up."""
    workdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    mpf = load_mpf()
    workload = WORKLOADS[name](mpf, seed, str(workdir), tracer)
    return workload, time.perf_counter() - t0


def probe_setup(name: str, seed: int) -> float:
    """Set-up time of another fresh interpreter, the way a new process pays it."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def run_cycles(workload, seconds=None, cycles=None, first_cycle=0, tracer=None, min_cycles=1, speed=None,
               between=None):
    """Closed loop, one caller: whole cycles until time is up (or a fixed count).

    Returns (op, latency_s, error or None) per op, latency in wall seconds.
    Checks, the host-speed samples of ``speed`` and ``between(elapsed_s)``,
    called after each cycle, run outside the timed region.
    """
    records = []
    t_start = time.perf_counter()
    k = first_cycle
    while True:
        done = k - first_cycle
        elapsed = time.perf_counter() - t_start
        if cycles is not None and done >= cycles:
            break
        if cycles is None and done >= min_cycles and elapsed >= seconds:
            break
        if done >= 1 and elapsed >= HARD_STOP_S:
            print(f"warning: stopped after {done} cycles at the {HARD_STOP_S:.0f} s hard stop", file=sys.stderr)
            break
        for op in workload.cycle(k):
            op.cycle = k
            if speed is not None:
                speed.tick()
            span = None
            if tracer is not None:
                tracer.current_op[0] = tracer.n_ops
                tracer.n_ops += 1
                span = tracer.begin(OP)
            t0 = time.perf_counter()
            try:
                result, error = op.run(), None
            except Exception as exc:  # a failed op is counted, the loop goes on
                result, error = None, f"raised {exc!r}"
            latency = time.perf_counter() - t0
            op.start = t0
            if span is not None:
                tracer.finish(span)
                tracer.current_op[0] = -1
            if error is None:
                try:
                    error = op.check(result)
                except Exception as exc:
                    error = f"check raised {exc!r}"
            records.append((op, latency, error))
        k += 1
        if between is not None:
            between(time.perf_counter() - t_start)
    return records


def percentile(values, pct):
    """Nearest-rank percentile: the smallest value with pct% of samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def peak_rss_mib() -> float:
    """Larger of this process's and its largest child's max RSS (Linux reports KiB)."""
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kib, child_kib) / 1024


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def machine_info() -> dict:
    import numpy

    info = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": None,
        "llc": None,
    }
    for line in _read("/proc/cpuinfo").splitlines():
        key, _, value = line.partition(":")
        if key.strip() == "model name" and info["cpu_model"] is None:
            info["cpu_model"] = value.strip()
        if key.strip() == "cache size" and info["llc"] is None:
            info["llc"] = value.strip()
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    levels = []
    for index in sorted(cache.glob("index*")):
        level, size = _read(str(index / "level")).strip(), _read(str(index / "size")).strip()
        if level.isdigit() and size:
            levels.append((int(level), f"L{level} {size}"))
    if levels:
        info["llc"] = max(levels)[1]
    return info


def class_latencies(records) -> dict:
    by_label: dict[str, list[float]] = {}
    for op, latency, _ in records:
        by_label.setdefault(op.label, []).append(latency)
    return {k: {"ops": len(v), "median_s": statistics.median(v)} for k, v in sorted(by_label.items())}


def report_failures(records, failed: set[int]) -> None:
    for i in sorted(failed)[:5]:
        op, _, error = records[i]
        print(f"FAILED op {i} ({op.label}): {error or 'deferred check failed'}", file=sys.stderr)


def end_to_end(workload, records, setup_s: float, rss: float, speed: HostSpeed | None = None) -> dict:
    """The end-to-end metrics; with speed, each op's time is scaled by the host speed around it."""
    latencies = [latency * (speed.local_factor(op.start, op.start + latency) if speed else 1.0)
                 for op, latency, _ in records]
    tail, beyond = percentile(latencies, workload.tail_pct)
    if beyond < 10:
        print(f"warning: only {beyond} samples beyond p{workload.tail_pct}", file=sys.stderr)
    return {
        "setup_s": (setup_s, "s"),
        "throughput_per_s": (sum(op.units for op, _, _ in records) / sum(latencies), "1/s"),
        "latency_p50_s": (percentile(latencies, 50)[0], "s"),
        "latency_tail_s": (tail, "s"),
        "peak_rss_mib": (rss, "MiB"),
    }


PER_OP_SELF = [
    "gf2n.mul", "boolfun", "transforms.twist", "transforms.fwht", "transforms.flat", "transforms.transform",
    "planar.perm", "planar.components", "planar.component", "planar.do_to_table",
    "rds.characters", "rds.bruteforce", "search.run", "search.decode", "cli",
]
PER_OP_CALLS = ["gf2n.mul", "boolfun", "transforms.fwht", "planar.perm", "cli"]
PER_OP_COUNTERS = [
    ("transforms.fwht.butterflies", "count/op"), ("transforms.fwht.bytes", "B/op"),
    ("planar.perm.directions", "count/op"), ("rds.characters.evals", "count/op"),
    ("search.examined", "count/op"), ("search.passed", "count/op"),
]


def per_layer(tracer: Tracer, n_ops: int, overhead: float, factor: float = 1.0) -> dict:
    """Self seconds and counts per op, table builds per build, layer shares of op time.

    Seconds are scaled by the host-speed factor; shares and counts are not.
    """
    import numpy as np

    name, op, dur, self_t = tracer.self_times()
    ids = {n: i for i, n in enumerate(tracer.names)}
    in_ops = op >= 0

    def select(span, ops_only=True):
        mask = name == ids.get(span, -1)
        return mask & in_ops if ops_only else mask

    metrics = {}
    builds_all = select(TABLES, ops_only=False)
    n_builds = int(builds_all.sum())
    # A build is timed with everything under it, its own multiplies included.
    metrics["gf2n.tables.self_s"] = (float(dur[builds_all].sum()) * factor / max(n_builds, 1), "s/build")
    metrics["gf2n.tables.builds"] = (int(select(TABLES).sum()) / n_ops, "count/op")
    metrics["gf2n.tables.bytes"] = (tracer.counters["gf2n.tables.bytes"] / max(n_builds, 1), "B/build")
    for span in PER_OP_SELF:
        metrics[f"{span}.self_s"] = (float(self_t[select(span)].sum()) * factor / n_ops, "s/op")
    for span in PER_OP_CALLS:
        metrics[f"{span}.calls"] = (int(select(span).sum()) / n_ops, "count/op")
    for key, unit in PER_OP_COUNTERS:
        metrics[key] = (tracer.counters[key] / n_ops, unit)
    examined = tracer.counters["search.examined"]
    metrics["search.pass_ratio"] = (tracer.counters["search.passed"] / examined if examined else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    op_time = float(dur[select(OP)].sum())
    span_layer = np.array([n.split(".")[0] for n in tracer.names])[name]
    for layer in LAYERS:
        mask = in_ops & (span_layer == layer)
        metrics[f"{layer}.share"] = (float(self_t[mask].sum()) / op_time, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        if args.setup_probe:
            _, elapsed = setup(args.workload, args.seed, workdir)
            print(f"{elapsed!r}")
            return 0
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path) -> int:
    tracer = Tracer() if args.trace else None
    workload, own_setup_s = setup(args.workload, args.seed, workdir, tracer)
    speed = HostSpeed()
    wall = {"own setup": own_setup_s}
    if tracer is None:
        # Set-ups are spread through the run, like the ops, so that their
        # median covers the same spells of host speed; each is scaled by
        # the kernel runs just around it.
        setups = []  # (wall s, host-speed factor)

        def set_up_once():
            setups.append(speed.timed_around(lambda: probe_setup(args.workload, args.seed)))

        def set_up_when_due(elapsed):
            if len(setups) < SETUP_RUNS and elapsed >= len(setups) * args.seconds / SETUP_RUNS:
                set_up_once()

        records = run_cycles(workload, seconds=args.seconds, min_cycles=workload.min_cycles, speed=speed,
                             between=set_up_when_due)
        while len(setups) < SETUP_RUNS:
            set_up_once()
        rss = peak_rss_mib()
        failed = {i for i, (_, _, error) in enumerate(records) if error}
        failed |= workload.finish([op for op, _, _ in records])
        setup_s = statistics.median(t * f for t, f in setups)
        metrics = end_to_end(workload, records, setup_s, rss, speed)
        wall.update(end_to_end(workload, records, statistics.median(t for t, _ in setups), rss))
        wall["set-ups"] = [t for t, _ in setups]
    else:
        # Untraced and traced cycles alternate, so a change in the host's
        # speed during the run falls on both; their ratio is the tracing cost.
        untraced, traced = [], []
        t_start = time.perf_counter()
        k = 0
        while k == 0 or time.perf_counter() - t_start < min(args.seconds, HARD_STOP_S):
            untraced += run_cycles(workload, cycles=1, first_cycle=k, speed=speed)
            tracer.install()
            try:
                traced += run_cycles(workload, cycles=1, first_cycle=k + 1, tracer=tracer, speed=speed)
            finally:
                tracer.restore()
            k += 2
        records = untraced + traced
        failed = {i for i, (_, _, error) in enumerate(records) if error}
        failed |= workload.finish([op for op, _, _ in records])
        overhead = sum(t for _, t, _ in traced) / sum(t for _, t, _ in untraced)
        metrics = per_layer(tracer, len(traced), overhead, speed.factor())
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{args.workload}.npz")
        if tracer.missing:
            print(f"note: not traced (absent): {', '.join(sorted(tracer.missing))}", file=sys.stderr)
    report_failures(records, failed)
    emit(args, workload, records, failed, metrics, speed, wall)
    return 0


def emit(args, workload, records, failed: set[int], metrics: dict, speed: HostSpeed, wall: dict) -> None:
    """Human-readable lines, a report file, and the result JSON as the last line."""
    attempted = len(records)
    machine = machine_info()
    print(f"mpf benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"machine: {json.dumps(machine)}")
    classes = class_latencies(records)
    for label, row in classes.items():
        print(f"  class {label:<28} {row['ops']:>5} ops  median {row['median_s']:.6f} s (wall)")
    factor = speed.factor()
    print(f"host speed: kernel median {statistics.median(speed.samples):.6f} s over {len(speed.samples)} samples;"
          f" times below are wall times scaled by the kernel times near each (x {factor:.4f} over the run)")
    for key, (value, unit) in metrics.items():
        note = ""
        if key == "throughput_per_s":
            note = f"  ({workload.unit} per second of op time)"
        elif key == "latency_tail_s":
            note = f"  (p{workload.tail_pct} of {attempted} ops)"
        elif key == "setup_s":
            note = f"  (median of {SETUP_RUNS} fresh-process set-ups)"
        elif key in ("transforms.fwht.butterflies", "transforms.fwht.bytes", "gf2n.tables.bytes"):
            note = "  (computed from array shapes)"
        if key in wall:
            note += f"  [wall {wall[key][0]:.6g}]"
        print(f"{key:<30} {value:.6g} {unit}{note}")
    print(f"{'failed_ratio':<30} {len(failed) / attempted:.6g}  ({len(failed)} of {attempted} ops)")
    print(f"{'own set-up (wall, unscaled)':<30} {wall['own setup']:.6g} s")
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-trace{args.trace}.json", "w") as fh:
        json.dump({"args": vars(args), "machine": machine, "classes": classes,
                   "host_speed": {"factor": factor, "kernel_samples": speed.samples},
                   "wall": {k: v[0] if isinstance(v, tuple) else v for k, v in wall.items()},
                   "failed_ratio": len(failed) / attempted, **result,
                   "ops": [[op.label, op.cycle, latency] for op, latency, _ in records]}, fh)
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
