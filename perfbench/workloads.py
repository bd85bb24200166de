"""Seeded inputs and the timed work of the three benchmark workloads.

Each workload is a list of items made once from the seed; a pass runs
every item in order, and the runner repeats passes until its time is up.
An item is one family (or, for gsm-estimation, one training matrix or the
CLI chain) taken through everything a user does with it.  Items build
their families afresh in every pass, so no pass reuses another's caches.

The item sizes are fixed by stratum and only the free choices inside a
stratum (part orders, eta, random training symbols) come from the seed,
so the work per pass, and therefore its time, hardly depends on the seed.

Layers are reached through module attributes (``verify.check_eczcs``),
so the traced run sees every call after rebinding those attributes.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import numpy as np

from eczcs import cli, construct, correlation, gbf, sequences, simulate, training, verify

FIXTURES = ("zccs_2x2x12", "zccs_2x2x24_nonc2", "eczcs_2x2x24", "eczcs_4x2x32")
# zone widths the shipped enhanced fixtures are designed for
FIXTURE_ZONES = {"eczcs_2x2x24": 9, "eczcs_4x2x32": 8}

EBN0_GRID = (4.0, 8.0, 12.0, 16.0)
MC_TRIALS = 600
CLI_TRIALS = 400
CLI_SEED_ID = "zccs-2-2-12-10"


# ---------------------------------------------------------------- inputs


def _chain_spec(rng: random.Random, m: int, k: int, v: int, head: int) -> tuple:
    """An ordered partition of 1..m into k chains meeting Theorem 3's rule.

    Chains v+1..k start at m, m-1, ...; chain 1 starts at ``head``; the
    other elements are shuffled and dealt to random chains, with chains
    2..v each getting at least one.
    """
    pinned = [m - g + 1 for g in range(1, k - v + 1)]
    rest = [x for x in range(1, m + 1) if x not in pinned and x != head]
    rng.shuffle(rest)
    parts = [[head]] + [[rest.pop()] for _ in range(v - 1)] + [[p] for p in pinned]
    while rest:
        parts[rng.randrange(k)].append(rest.pop())
    return tuple(tuple(p) for p in parts)


# (m, k, v): L = 2^m, 2^k sets of 2^v sequences; each runs at q = 2 and 4.
# Chain counts reach three on every length and four (16 sets) once, which
# keeps a pass near three seconds on a 2-core sandbox.
SWEEP_SHAPES = (
    (3, 1, 1), (3, 2, 1), (3, 2, 2), (3, 3, 1), (3, 3, 3),
    (4, 1, 1), (4, 2, 1), (4, 2, 2), (4, 3, 2),
    (5, 1, 1), (5, 2, 1), (5, 2, 2), (5, 3, 3),
    (6, 1, 1), (6, 2, 1), (6, 2, 2),
)
SWEEP_STRATA = tuple((m, k, v, q) for m, k, v in SWEEP_SHAPES for q in (2, 4)) + ((4, 4, 4, 2),)


def theorem_sweep_items(seed: int) -> list[dict]:
    rng = random.Random(f"theorem-sweep:{seed}")
    items = []
    for m, k, v, q in SWEEP_STRATA:
        head = m - k + v if q == 2 else max(1, m - k + v - 1)
        parts = _chain_spec(rng, m, k, v, head)
        eta = tuple(rng.randrange(q) for _ in range(m + 1))
        items.append({"kind": "sweep", "m": m, "parts": parts, "v": v, "q": q, "eta": eta})
    return items


def zone_scan_items(seed: int) -> list[dict]:
    rng = random.Random(f"zone-scan:{seed}")
    items = []
    for m, k, v, q in ((5, 2, 1, 2), (5, 2, 1, 4), (4, 2, 1, 8)):
        eta = tuple(rng.randrange(q) for _ in range(m + 1))
        items.append({"kind": "theorem3", "m": m, "k": k, "v": v, "q": q, "eta": eta})
    for m, k in ((5, 1), (6, 1), (4, 2)):
        perm = list(range(1, m + 1))
        rng.shuffle(perm)
        cut = m // k
        parts = (tuple(perm),) if k == 1 else (tuple(perm[:cut]), tuple(perm[cut:]))
        eta = tuple(rng.randrange(2) for _ in range(m + 1))
        items.append({"kind": "doubled-ccc", "m": m, "parts": parts, "eta": eta})
    for name in FIXTURES:
        items.append({"kind": "fixture", "name": name})
    return items


def gsm_items(seed: int) -> list[dict]:
    rng = random.Random(f"gsm-estimation:{seed}")
    t3_parts = _chain_spec(rng, 5, 2, 1, 4)
    t3_eta = tuple(rng.randrange(2) for _ in range(6))
    perm = list(range(1, 4))
    rng.shuffle(perm)
    ccc_parts = (tuple(perm[:1]), tuple(perm[1:]))
    sources = [
        {"source": "fixture", "name": "eczcs_2x2x24", "zone": 9},
        {"source": "fixture", "name": "eczcs_4x2x32", "zone": 8},
        {"source": "theorem2", "m": 3, "parts": ccc_parts, "zone": 7},
        {"source": "theorem3", "m": 5, "parts": t3_parts, "v": 1, "eta": t3_eta, "zone": 8},
        {"source": "random-binary", "blocks": 2, "block_length": 32, "zone": 8},
        {"source": "zadoff-chu", "blocks": 2, "block_length": 32, "zone": 8},
    ]
    items = []
    for nt, na in ((4, 2), (8, 3)):
        for src in sources:
            if src["source"] == "fixture" and src["name"] == "eczcs_2x2x24" and na > 2:
                continue  # two sets cannot feed three active antennas
            items.append(
                {"kind": "matrix", "nt": nt, "na": na, "mc_seed": rng.randrange(1 << 30),
                 "rng_seed": rng.randrange(1 << 30), **src}
            )
    items.append({"kind": "cli", "mc_seed": rng.randrange(1 << 30)})
    return items


ITEM_MAKERS = {
    "theorem-sweep": theorem_sweep_items,
    "zone-scan": zone_scan_items,
    "gsm-estimation": gsm_items,
}


def make_items(workload: str, seed: int) -> list[dict]:
    return ITEM_MAKERS[workload](seed)


# ---------------------------------------------------------------- timed work


def run_sweep(item: dict) -> dict:
    spec = gbf.PartitionSpec(item["m"], item["parts"])
    fam = gbf.theorem3_construct(spec, item["v"], item["q"], item["eta"])
    width = gbf.theorem3_zcz_width(spec)
    code = gbf.lemma2_ccc(spec, item["q"], item["eta"])
    verdicts = {
        "eczcs": verify.check_eczcs(fam, width),
        "szccs": verify.check_szccs(fam, width),
        "zccs": verify.check_zccs(fam, min(width + 1, fam.length)),
        "mocs": verify.check_mocs(fam),
        "zcz": verify.check_zcz_set(verify.flatten_to_zcz(fam), width),
        "ccc": verify.check_ccc(code),
    }
    return {"family": fam, "code": code, "width": width, "verdicts": verdicts}


def build_zone_family(item: dict):
    """The family of a zone-scan item, plus the zone width it guarantees."""
    if item["kind"] == "theorem3":
        spec = gbf.optimal_theorem3_params(item["m"], item["k"], item["v"])
        fam = gbf.theorem3_construct(spec, item["v"], item["q"], item["eta"])
        return fam, gbf.theorem3_zcz_width(spec)
    if item["kind"] == "doubled-ccc":
        code = gbf.lemma2_ccc(gbf.PartitionSpec(item["m"], item["parts"]), 2, item["eta"])
        return construct.theorem2_construct(code, code.length), code.length - 1
    fam = sequences.load_fixture_family(item["name"])
    return fam, FIXTURE_ZONES.get(item["name"], 0)


def run_zone(item: dict) -> dict:
    fam, guaranteed = build_zone_family(item)
    width = verify.measure_zcz_width(fam)
    bound = verify.eczcs_bound(fam.num_sets, fam.set_size, fam.length, fam.q)
    optimal = verify.is_optimal(fam, width)
    csv = {}
    for m1 in range(fam.num_sets):
        for m2 in range(fam.num_sets):
            csv[f"rho:{m1},{m2}"] = correlation.profile_set_corr(fam, m1, m2).to_csv()
            csv[f"rhohat:{m1},{m2}"] = correlation.profile_cross_channel(fam, m1, m2).to_csv()
    return {"family": fam, "guaranteed": guaranteed, "width": width, "bound": bound,
            "optimal": optimal, "csv": csv}


def build_matrix(item: dict):
    cfg = training.GSMConfig(item["nt"], item["na"])
    src = item["source"]
    if src == "random-binary":
        rng = np.random.default_rng(item["rng_seed"])
        return simulate.baseline_random_binary(cfg, item["blocks"], item["block_length"], rng)
    if src == "zadoff-chu":
        return simulate.baseline_zadoff_chu(cfg, item["blocks"], item["block_length"])
    if src == "fixture":
        fam = sequences.load_fixture_family(item["name"])
    elif src == "theorem2":
        code = gbf.lemma2_ccc(gbf.PartitionSpec(item["m"], item["parts"]), 2)
        fam = construct.theorem2_construct(code, code.length)
    else:
        spec = gbf.PartitionSpec(item["m"], item["parts"])
        fam = gbf.theorem3_construct(spec, item["v"], 2, item["eta"])
    return training.build_training_matrix(fam, cfg, source=src)


def run_matrix(item: dict) -> dict:
    tm = build_matrix(item)
    zone = item["zone"]
    criterion = [training.check_design_criterion(tm, lam) for lam in range(zone + 2)]
    model = training.build_ls_model_matrix(tm, zone)
    sim = simulate.SimConfig(
        ebn0_db=EBN0_GRID, delay_spreads=(zone,), trials=MC_TRIALS, seed=item["mc_seed"],
        matrix_id=item["source"],
    )
    report = simulate.monte_carlo_mse(tm, sim)
    return {"matrix": tm, "criterion": criterion, "model": model, "report": report}


def cli_argv(workdir: Path) -> dict[str, list[str]]:
    d = str(workdir)
    return {
        "construct": ["construct", "theorem2", "--seed", CLI_SEED_ID, "--out", f"{d}/fam.json"],
        "verify": ["verify", f"{d}/fam.json", "--kind", "eczcs", "--Z", "9", "--out", f"{d}/verdict.json"],
        "train": ["train", f"{d}/fam.json", "--nt", "4", "--na", "2", "--lambda", "9",
                  "--out", f"{d}/psi.csv"],
        "simulate": ["simulate", "--config", f"{d}/sim.json", "--out", f"{d}/report.csv"],
    }


def run_cli(item: dict, workdir: Path, span=None) -> dict:
    """The construct -> verify -> train -> simulate chain through cli.main.

    ``span(name)`` is a context manager the traced run uses to time each
    command; output the commands print is captured, not shown.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    config = {
        "matrix": {"kind": "family", "path": "fam.json", "nt": 4, "na": 2},
        "ebn0_db": list(EBN0_GRID),
        "delay_spreads": [9],
        "trials": CLI_TRIALS,
        "seed": item["mc_seed"],
        "matrix_id": "cli",
    }
    (workdir / "sim.json").write_text(json.dumps(config))
    codes = {}
    sink = io.StringIO()
    for step, argv in cli_argv(workdir).items():
        timer = span(f"cli.{step}") if span else contextlib.nullcontext()
        with timer, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            codes[step] = cli.main(argv)
    return {"workdir": workdir, "codes": codes, "config": config}


def run_item(item: dict, workdir: Path, span=None) -> dict:
    kind = item["kind"]
    if kind == "sweep":
        return run_sweep(item)
    if kind == "matrix":
        return run_matrix(item)
    if kind == "cli":
        return run_cli(item, workdir, span)
    return run_zone(item)
