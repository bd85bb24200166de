"""Benchmark of the eczcs toolkit: one command, three seeded workloads.

    python3 perfbench/run.py --workload theorem-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout.  A run makes its items from the seed, runs
one warm-up pass whose outputs the correctness oracle checks, then
repeats timed passes over the same items until ``--seconds`` have
passed.  Every later pass must reproduce the warm-up pass's outputs
exactly.  Each timed pass sits between two calibration loops (see
``calibrate``) and is followed by one timed fresh set-up.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half
the time on untraced passes and half on traced ones, and reports the
per-layer metrics: one traced set-up plus the median traced pass.  Spans
and a full record of the run are written to ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it carry the provenance record and the workload-specific figures.
Single process, single thread: BLAS is pinned to one thread before numpy
loads.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402  (after the thread pins; never part of a timing)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
BENCHMARK = ROOT / "BENCHMARK.json"
WORKLOADS = ("theorem-sweep", "zone-scan", "gsm-estimation")
MIN_TIMED_PASSES = 3  # per timed half in a traced run: 2
CALIBRATION_ROUNDS = 6000
CALIBRATION_S = 0.12  # nominal calibrate() time, so calibrated seconds read near raw ones


def _eczcs_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "eczcs" or n.startswith("eczcs.")}


def fresh_setup() -> float:
    """Time what a new process pays before its first call.

    That is a fresh import of eczcs and its CLI, the seed catalog's
    re-verification and loading every fixture.  The modules already in use
    are put back afterwards, so a sample can be taken between passes.
    """
    saved = _eczcs_modules()
    for name in saved:
        del sys.modules[name]
    start = perf_counter()
    eczcs = importlib.import_module("eczcs")
    importlib.import_module("eczcs.cli")
    eczcs.seed_catalog()
    for path in sorted(eczcs.sequences.fixture_dir().glob("*.txt")):
        eczcs.load_fixture_family(path.stem)
    elapsed = perf_counter() - start
    for name in _eczcs_modules():
        del sys.modules[name]
    sys.modules.update(saved)
    return elapsed


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args, samples: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "eczcs").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": samples,
    }


class Runner:
    """Runs passes over one workload's items and checks their outputs."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        import oracle
        import workloads

        self.oracle, self.workloads = oracle, workloads
        self.items = workloads.make_items(workload, seed)
        self.seed = seed
        self.workdir = workdir
        self.reference = None
        self.first_outputs = None
        self.attempted = 0
        self.failures: dict[str, list[str]] = {}
        self.pass_no = 0

    def fail(self, key: str, reason: str) -> None:
        self.failures.setdefault(key, []).append(reason)

    def is_family(self, item) -> bool:
        return item["kind"] != "cli"

    def run_pass(self, tracer=None):
        """One pass over every item: its wall time and per-item times."""
        pass_dir = self.workdir / f"pass{self.pass_no}"
        span = (lambda name: tracer.span(name, "cli")) if tracer is not None else None
        outputs, times = [], []
        start = perf_counter()
        for i, item in enumerate(self.items):
            t0 = perf_counter()
            if tracer is not None:
                tracer.run_id = self.pass_no * len(self.items) + i
                with tracer.span("bench.item", "bench"):
                    out = self.workloads.run_item(item, pass_dir, span)
            else:
                out = self.workloads.run_item(item, pass_dir, span)
            times.append(perf_counter() - t0)
            outputs.append(out)
        wall = perf_counter() - start
        self._record(outputs, tracer)
        if self.pass_no > 0:
            shutil.rmtree(pass_dir, ignore_errors=True)
        self.pass_no += 1
        return wall, times

    def _record(self, outputs, tracer) -> None:
        summaries = [self.oracle.summarize(it, out) for it, out in zip(self.items, outputs)]
        self.attempted += len(self.items)
        if tracer is not None:
            tracer.counts["cli.nonzero_exits"] += sum(
                code != 0 for out in outputs if "codes" in out for code in out["codes"].values()
            )
        if self.reference is None:
            self.reference, self.first_outputs = summaries, outputs
            return
        for i, (got, want) in enumerate(zip(summaries, self.reference)):
            if got != want:
                self.fail(f"pass {self.pass_no} item {i}", "outputs differ from the first pass")

    def check_first_pass(self) -> None:
        deep = self.oracle.subset(self.items, self.seed)
        context = self.oracle.cli_context()
        for i, (item, out) in enumerate(zip(self.items, self.first_outputs)):
            for reason in self.oracle.check_item(item, out, i in deep, context):
                self.fail(f"pass 0 item {i} ({item['kind']})", reason)
        self.first_outputs = None


def calibrate() -> float:
    """Time a fixed loop of interpreter and small-numpy work that uses no eczcs.

    The sandbox's cores are shared, and their speed drifts by a factor of two
    over tens of seconds, which moves raw wall times more than the bounds
    allow.  Timings are therefore reported in calibrated seconds: raw time
    times CALIBRATION_S over the mean of this loop's times just before and
    just after.  The loop runs with the garbage collector off, so the
    program's heap cannot slow it.
    """
    a = np.arange(64) % 4
    za, zb = a.astype(complex), ((7 * a) % 4).astype(complex)
    total = 0
    gc.disable()
    try:
        start = perf_counter()
        for r in range(CALIBRATION_ROUNDS):
            counts = np.rint(np.correlate(za, zb, mode="full").real).astype(np.int64)
            total += sum(tuple(int(c) for c in counts[:32]))
            total += sum({(i, r): (31 * i + r) % 7 for i in range(32)}.values())
        return perf_counter() - start
    finally:
        gc.enable()


@dataclass
class Timings:
    """Calibrated times of the timed passes, and the raw ones they came from."""

    walls: list = field(default_factory=list)
    item_times: list = field(default_factory=list)
    setups: list = field(default_factory=list)
    speed: list = field(default_factory=list)  # CALIBRATION_S / calibration time
    raw_walls: list = field(default_factory=list)


def timed_passes(runner: Runner, seconds: float, minimum: int, tracer=None, on_pass=None) -> Timings:
    """Passes until the time is up, each between two calibrations.

    An untraced run also takes one set-up sample after each pass, so the
    set-up median sees the same machine as the passes do.
    """
    t = Timings()
    before = calibrate()
    deadline = perf_counter() + seconds
    while len(t.walls) < minimum or perf_counter() < deadline:
        wall, times = runner.run_pass(tracer)
        if on_pass:
            on_pass()
        setup = fresh_setup() if tracer is None else None
        after = calibrate()
        speed = CALIBRATION_S / ((before + after) / 2)
        before = after
        t.speed.append(speed)
        t.raw_walls.append(wall)
        t.walls.append(wall * speed)
        t.item_times.append([x * speed for x in times])
        if setup is not None:
            t.setups.append(setup * speed)
    return t


def end_to_end(runner: Runner, t: Timings) -> tuple[dict, dict]:
    families = [i for i, it in enumerate(runner.items) if runner.is_family(it)]
    family_ms = [1e3 * times[i] for times in t.item_times for i in families]
    metrics = {
        "setup_s": statistics.median(t.setups),
        "pass_s": statistics.median(t.walls),
        "families_per_s": len(families) / statistics.median(t.walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "family_ms_p50": {"value": statistics.median(family_ms), "unit": "ms",
                          "samples": len(family_ms)},
        "family_ms_p90": {"value": percentile(family_ms, 90), "unit": "ms",
                          "samples": len(family_ms)},
        "raw_pass_s": {"value": statistics.median(t.raw_walls), "unit": "s"},
        "machine_speed": {"value": statistics.median(t.speed), "unit": "frac"},
    }
    matrices = [i for i, it in enumerate(runner.items) if it["kind"] == "matrix"]
    if matrices:
        per_pass_trials = len(matrices) * len(runner.workloads.EBN0_GRID) * runner.workloads.MC_TRIALS
        detail["trials_per_s"] = {"value": per_pass_trials / statistics.median(t.walls), "unit": "1/s"}
        detail["mse_report_s"] = {
            "value": statistics.median(sum(x[i] for i in matrices) for x in t.item_times), "unit": "s"}
        cli = [i for i, it in enumerate(runner.items) if it["kind"] == "cli"]
        detail["cli_pipeline_s"] = {"value": statistics.median(x[cli[0]] for x in t.item_times),
                                    "unit": "s"}
    return metrics, detail


def per_layer(runner: Runner, seconds: float, untraced: Timings):
    """One traced set-up, then traced passes until the time is up.

    Per-layer times are raw traced seconds; the overhead compares
    calibrated pass times.
    """
    import eczcs.construct
    import tracing

    tracer = tracing.Tracer()
    eczcs.construct.seed_catalog.cache_clear()
    tracer.install()
    with tracer.span("bench.setup", "bench"):
        eczcs.construct.seed_catalog()
        for path in sorted(eczcs.sequences.fixture_dir().glob("*.txt")):
            eczcs.sequences.load_fixture_family(path.stem)
    setup = tracer.segment_metrics(0, tracer.size(), tracer.counts)
    tracer.counts.clear()
    segments, marks = [], [tracer.size()]

    def close_segment():
        segments.append(tracer.segment_metrics(marks[-1], tracer.size(), tracer.counts))
        marks.append(tracer.size())
        tracer.counts.clear()

    traced = timed_passes(runner, seconds, 2, tracer, close_segment)
    tracer.uninstall()
    counts = [tracing.work_counts(s) for s in segments]
    if any(c != counts[0] for c in counts):
        runner.fail("trace", "work counts differ between identical passes")
    metrics = tracing.combine(setup, segments)
    metrics["trace.overhead_frac"] = (
        statistics.median(traced.walls) / statistics.median(untraced.walls) - 1
    )
    return metrics, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "eczcs" / "__init__.py").is_file() or not BENCHMARK.is_file():
        print(f"error: no eczcs package under {SRC} or no {BENCHMARK.name}; "
              "run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import eczcs
    import eczcs.cli  # noqa: F401  (first import compiles bytecode; not timed)

    if Path(eczcs.__file__).resolve().parent != (SRC / "eczcs").resolve():
        print(f"error: eczcs imported from {eczcs.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT_DIR / f"work-{stem}-{os.getpid()}"
    runner = Runner(args.workload, args.seed, workdir)
    try:
        runner.run_pass()  # warm-up: fills lazy caches; its outputs go to the oracle
        if args.trace:
            half = args.seconds / 2
            timings = timed_passes(runner, half, 2)
            metrics, tracer = per_layer(runner, args.seconds - half, timings)
            tracer.save(OUT_DIR / f"{stem}.spans.npz")
            detail = {}
        else:
            timings = timed_passes(runner, args.seconds, MIN_TIMED_PASSES)
            metrics, detail = end_to_end(runner, timings)
        runner.check_first_pass()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = json.loads(BENCHMARK.read_text())["per_layer" if args.trace else "end_to_end"]
    reported = {m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
                for m in declared}
    samples = {"setup_samples": len(timings.setups), "timed_passes": len(timings.walls),
               "items_per_pass": len(runner.items),
               "family_samples": sum(runner.is_family(it) for it in runner.items) * len(timings.walls)}
    record = {
        "provenance": provenance(args, samples),
        "detail": detail,
        "all_metrics": metrics,
        "pass_s": timings.walls,
        "raw_pass_s": timings.raw_walls,
        "setup_s": timings.setups,
        "machine_speed": timings.speed,
        "failures": dict(list(runner.failures.items())[:50]),
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"provenance": record["provenance"]}))
    if detail:
        print(json.dumps({"detail": detail}))
    for key, reasons in list(runner.failures.items())[:20]:
        print(f"FAILED {key}: {'; '.join(reasons[:3])}", file=sys.stderr)
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": reported,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
