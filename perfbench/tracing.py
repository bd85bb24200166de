"""Span tracing for the benchmark's traced run.

Spans are recorded from the benchmark's own files only: ``install``
rebinds each public layer function named in ``LAYER_FUNCTIONS`` to a
timing wrapper, in every ``eczcs`` module that holds it.  That covers the
benchmark's own calls (made through module attributes) and the nested
calls one layer makes into another through the names it imported, such as
``verify`` calling ``set_corr_table`` or ``monte_carlo_mse`` calling
``sample_channel``.  ``uninstall`` puts the original functions back.

A span is (name, start, end, parent, run id), kept in flat arrays in
memory and written to disk once at exit.  Counters are taken at the same
boundaries from each call's arguments and result.
"""

from __future__ import annotations

import statistics
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

LAYER_FUNCTIONS = {
    "correlation": ("set_corr_table", "cross_channel_table", "pccf",
                    "profile_set_corr", "profile_cross_channel", "CorrelationProfile.to_csv"),
    "verify": ("check_eczcs", "check_szccs", "check_zccs", "check_mocs", "check_ccc",
               "check_zcz_set", "measure_zcz_width", "is_optimal", "flatten_to_zcz"),
    "gbf": ("theorem3_construct", "lemma2_ccc"),
    "construct": ("seed_catalog", "theorem2_construct"),
    "sequences": ("load_fixture_family",),
    "training": ("build_training_matrix", "check_design_criterion", "training_pccf",
                 "build_ls_model_matrix"),
    "simulate": ("monte_carlo_mse", "sample_channel", "baseline_random_binary",
                 "baseline_zadoff_chu"),
}
LAYERS = tuple(LAYER_FUNCTIONS) + ("cli", "bench")
CHECKS = ("check_eczcs", "check_szccs", "check_zccs", "check_mocs", "check_ccc", "check_zcz_set")
CLI_STEPS = ("construct", "verify", "train", "simulate")


# ------------------------------------------------------------------ counts
# Each hook adds the work a call did to the counters, from its arguments
# and result.  Shift counts follow the windows documented in verify.py.


def _zccs_inspected(fam, width):
    m = fam.num_sets
    return m * max(width, 1) + m * (m - 1) * max(width, 0)


def _szccs_inspected(fam, width):
    length, m = fam.length, fam.num_sets
    window = set(range(1, width + 1)) | set(range(length - width, length))
    same = sum(1 for u in window if 1 <= u <= length - 1)
    cross = sum(1 for u in window | {0} if 0 <= u <= length - 1)
    return m * same + m * (m - 1) * cross


def _eczcs_inspected(fam, width):
    length = fam.length
    tail = [u for u in range(length - width, length) if 0 <= u <= length - 1]
    return _szccs_inspected(fam, width) + fam.num_sets ** 2 * sum(1 if u == 0 else 2 for u in tail)


def _zcz_inspected(sset, width):
    top, n = min(width, sset.length - 1), sset.size
    return n * top + n * (n - 1) * (top + 1)


INSPECTED = {
    "check_zccs": _zccs_inspected,
    "check_szccs": _szccs_inspected,
    "check_eczcs": _eczcs_inspected,
    "check_zcz_set": _zcz_inspected,
}


def _count(tracer, name, parent, args, result):
    c = tracer.counts
    if name in ("set_corr_table", "cross_channel_table"):
        c["correlation.table_calls"] += 1
        c["correlation.values_tabulated"] += len(result)
    elif name == "pccf":
        c["correlation.pccf_calls"] += 1
        c["correlation.values_tabulated"] += 1
    elif name in INSPECTED:
        c["verify.values_inspected"] += INSPECTED[name](args[0], args[1])
        c["verify.violations"] += len(result.violations)
    elif name in ("theorem3_construct", "lemma2_ccc"):
        c["gbf.construct_calls"] += 1
        c["gbf.entries"] += result.num_sets * result.set_size * result.length
    elif name == "training_pccf":
        c["training.pccf_calls"] += 1
    elif name == "sample_channel":
        c["simulate.trials"] += 1
    elif name == "monte_carlo_mse":
        c["simulate.failed_points"] += sum(p.failed for p in result.points)
    if name in CHECKS:
        if parent == "measure_zcz_width":
            c["verify.width_scan_checks"] += 1
        elif parent not in CHECKS:
            c["verify.checks"] += 1


class Tracer:
    """In-memory span store plus the rebinding that feeds it."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_run = array("i")
        self.stack = [-1]
        self.run_id = 0
        self.counts: Counter = Counter()
        self.enabled = False
        self._rebound: list[tuple] = []

    def _nid(self, name: str, layer: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return self.name_id[name]

    def begin(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1])
        self.span_run.append(self.run_id)
        self.span_end.append(0)
        self.stack.append(idx)
        self.span_start.append(perf_counter_ns())
        return idx

    def end(self, idx: int) -> None:
        self.span_end[idx] = perf_counter_ns()
        self.stack.pop()

    @contextmanager
    def span(self, name: str, layer: str):
        if not self.enabled:
            yield
            return
        idx = self.begin(self._nid(name, layer))
        try:
            yield
        finally:
            self.end(idx)

    def _wrap(self, fn, name: str, layer: str):
        nid = self._nid(name, layer)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer.begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            parent = tracer.span_parent[idx]
            _count(tracer, name, tracer.names[tracer.span_name[parent]] if parent >= 0 else "",
                   args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every layer function in every loaded eczcs module.

        A ``Class.method`` name is rebound on its class instead.
        """
        modules = [m for n, m in sys.modules.items() if n == "eczcs" or n.startswith("eczcs.")]
        for layer, names in LAYER_FUNCTIONS.items():
            home = sys.modules[f"eczcs.{layer}"]
            for name in names:
                cls_name, _, attr = name.rpartition(".")
                owner = getattr(home, cls_name) if cls_name else home
                fn = getattr(owner, attr)
                wrapper = self._wrap(fn, name, layer)
                if cls_name:
                    setattr(owner, attr, wrapper)
                    self._rebound.append((owner, attr, fn))
                    continue
                for mod in modules:
                    for alias, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, alias, wrapper)
                            self._rebound.append((mod, alias, fn))
        self.enabled = True

    def uninstall(self) -> None:
        for mod, attr, fn in self._rebound:
            setattr(mod, attr, fn)
        self._rebound.clear()
        self.enabled = False

    def size(self) -> int:
        """Number of spans recorded so far."""
        return len(self.span_name)

    # ------------------------------------------------------------ metrics

    def segment_metrics(self, lo: int, hi: int, counts: Counter) -> dict:
        """Per-layer metrics of the spans with index in [lo, hi)."""
        # slicing copies, so no view pins the growing arrays
        name = np.frombuffer(self.span_name[lo:hi], dtype=np.int32)
        start = np.frombuffer(self.span_start[lo:hi], dtype=np.int64)
        end = np.frombuffer(self.span_end[lo:hi], dtype=np.int64)
        parent = np.frombuffer(self.span_parent[lo:hi], dtype=np.int32)
        dur = (end - start) / 1e9
        self_time = dur.copy()
        inner = parent >= lo
        np.subtract.at(self_time, parent[inner] - lo, dur[inner])
        layer = np.array([LAYERS.index(self.layer_of[i]) for i in name], dtype=np.int64)
        by_layer = np.bincount(layer, weights=self_time, minlength=len(LAYERS))
        total = dur[~inner].sum()

        def incl(*names):
            ids = [self.name_id[n] for n in names if n in self.name_id]
            return float(dur[np.isin(name, ids)].sum())

        m = {k: float(v) for k, v in counts.items()}
        m.update({
            "correlation.table_s": incl("set_corr_table", "cross_channel_table"),
            "correlation.pccf_s": incl("pccf"),
            "verify.check_s": float(by_layer[LAYERS.index("verify")]),
            "verify.width_scan_s": incl("measure_zcz_width"),
            "gbf.construct_s": incl("theorem3_construct", "lemma2_ccc"),
            "construct.seed_catalog_s": incl("seed_catalog"),
            "construct.theorem2_s": incl("theorem2_construct"),
            "sequences.load_s": incl("load_fixture_family"),
            "training.build_s": incl("build_training_matrix"),
            "training.criterion_s": incl("check_design_criterion"),
            "training.ls_model_s": incl("build_ls_model_matrix"),
            "simulate.mc_s": incl("monte_carlo_mse"),
            "simulate.sample_channel_s": incl("sample_channel"),
            "trace.spans": float(hi - lo),
            "trace.root_s": float(total),
        })
        for step in CLI_STEPS:
            m[f"cli.{step}_s"] = incl(f"cli.{step}")
        for i, lay in enumerate(LAYERS):
            m[f"{lay}.self_s"] = float(by_layer[i])
        return m

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            layers=np.array(self.layer_of),
            name=np.frombuffer(self.span_name[:], dtype=np.int32),
            start_ns=np.frombuffer(self.span_start[:], dtype=np.int64),
            end_ns=np.frombuffer(self.span_end[:], dtype=np.int64),
            parent=np.frombuffer(self.span_parent[:], dtype=np.int32),
            run=np.frombuffer(self.span_run[:], dtype=np.int32),
        )


def combine(setup: dict, passes: list[dict]) -> dict:
    """Set-up plus the median pass, then the ratios and self-time shares.

    Shares are of the median pass alone: the traced set-up is the same on
    every workload.
    """
    keys = set(setup) | {k for p in passes for k in p}
    median = {k: statistics.median(p.get(k, 0.0) for p in passes) for k in keys}
    m = {k: setup.get(k, 0.0) + median[k] for k in keys}
    tabulated = m.get("correlation.values_tabulated", 0.0)
    m["verify.inspected_ratio"] = m.get("verify.values_inspected", 0.0) / tabulated if tabulated else 0.0
    trials = m.get("simulate.trials", 0.0)
    m["simulate.us_per_trial"] = 1e6 * m["simulate.mc_s"] / trials if trials else 0.0
    root = median["trace.root_s"]
    for lay in LAYERS:
        m[f"{lay}.self_share"] = median[f"{lay}.self_s"] / root if root else 0.0
    return m


def work_counts(m: dict) -> dict:
    """The metrics that count work, which must repeat exactly."""
    return {k: v for k, v in m.items() if not k.endswith("_s")}
