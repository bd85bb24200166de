"""Fold the run records in .perfbench_out/ into one BENCH_<label>.json.

    python3 perfbench/summarize.py --label seed --out perfbench/BENCH_seed.json

For each workload it gives, over all recorded runs, the median and
quartiles of every metric and the spread (q3 - q1) / median, with the
seeds and the machine the runs came from.  Traced runs add the per-layer
medians and each layer's share of traced self time.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORDS = ROOT / ".perfbench_out"


def describe(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "n": len(values),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    runs: dict[tuple, list[dict]] = {}
    for path in sorted(RECORDS.glob("*.json")):
        record = json.loads(path.read_text())
        prov = record["provenance"]
        runs.setdefault((prov["workload"], prov["trace"]), []).append(record)
    if not runs:
        raise SystemExit(f"no run records under {RECORDS}")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {"label": args.label, "workloads": {}}
    for (workload, trace), records in sorted(runs.items()):
        prov = records[0]["provenance"]
        out.setdefault("machine", {k: prov[k] for k in ("nproc", "cpu_model", "python", "numpy",
                                                        "blas", "blas_threads")})
        out.setdefault("git_commit", prov["git_commit"])
        out.setdefault("src_sha256", prov["src_sha256"])
        entry = out["workloads"].setdefault(workload, {})
        declared = benchmark["per_layer" if trace else "end_to_end"]
        metrics = {
            m["name"]: {"unit": m["unit"], **describe([r["all_metrics"][m["name"]] for r in records
                                                       if m["name"] in r["all_metrics"]] or [0.0])}
            for m in declared
        }
        key = "per_layer" if trace else "end_to_end"
        entry[key] = {
            "seeds": sorted(r["provenance"]["seed"] for r in records),
            "run_seconds": prov["seconds"],
            "samples": prov["samples"],
            "metrics": metrics,
        }
        if not trace:
            details = [r["detail"] for r in records]
            entry[key]["detail"] = {
                name: {"unit": details[0][name]["unit"], **describe([d[name]["value"] for d in details])}
                for name in details[0]
            }
    Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
