"""Command-line surface: construct, verify, profile, train, simulate.

Every run that writes an output also writes ``<out>.manifest.json``
recording the command, its full parameter set, the tool version, the
master seed, and digests of the input files; re-running a manifest's
command reproduces the outputs bit for bit.  ``simulate`` reads its
matrix, grid, trial count and seed from the config document alone, so
the config's digest and the version pin the report.  ``--q`` is the
alphabet of text family files; a JSON family carries its own q, so an
alphabet given beside one is an input error, as is an alphabet above
1024 (MAX_ALPHABET) in any input or a Zadoff-Chu block_length above 512.
Each input document has one schema: a key it lacks but needs, or holds
but never reads (a typo, a key of another matrix kind), is an error too.

Exit codes: 0 success (verification passed where applicable), 1 a
requested check failed or a simulated grid point failed (rank-deficient
training; the report and manifest are still written), 2 input or usage
error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__
from .construct import catalog_entry, seed_catalog, theorem2_construct
from .correlation import (
    profile_accf,
    profile_cross_channel,
    profile_pccf,
    profile_set_corr,
)
from .gbf import PartitionSpec, lemma2_ccc, theorem3_construct, theorem3_zcz_width
from .sequences import (
    ALPHABET,
    MAX_ALPHABET,
    NON_NEGATIVE,
    Family,
    check_document,
    family_to_json,
    format_family_text,
    load_family,
    parse_family_text,
)
from .simulate import (
    RNG_SCHEME,
    SimConfig,
    baseline_random_binary,
    baseline_zadoff_chu,
    monte_carlo_mse,
)
from .training import (
    GSMConfig,
    build_training_matrix,
    check_design_criterion,
    training_matrix_meta,
    training_matrix_to_csv,
)
from .verify import check_kind, measure_zcz_width

THEOREM3_PRESETS = {
    # byte-reproduces the shipped eczcs_4x2x32 fixture
    "eczcs-4-2-32-8": {
        "m": 5,
        "q": 2,
        "v": 1,
        "parts": [[4, 1, 2], [5, 3]],
        "eta": [0, 0, 1, 0, 0, 1],
    },
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_output(out, text: str, command: str, params: dict, inputs: list, seed=None) -> None:
    """Write text and its manifest to out, or the text to stdout when out is None."""
    if not out:
        sys.stdout.write(text)
        return
    out = Path(out)
    out.write_text(text)
    manifest = {
        "command": command,
        "version": __version__,
        "seed": seed,
        "params": params,
        "inputs": {str(p): _sha256(p) for p in inputs if p is not None},
        "outputs": [str(out)],
    }
    Path(str(out) + ".manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")


def _load_family_arg(path_str: str, q: int | None, q_name: str = "--q") -> tuple[Family, Path]:
    """Read a JSON family (which carries its own q) or a text one at alphabet q (named q_name),
    default 2."""
    if q is not None and q > MAX_ALPHABET:
        raise ValueError(f"{q_name} must be at most {MAX_ALPHABET}, got {q}")
    path = Path(path_str)
    if not path.exists():
        raise FileNotFoundError(f"no such family file: {path}")
    if path.suffix == ".json":
        if q is not None:
            raise ValueError(f"{q_name} is the alphabet of text family files; a JSON family carries its own q")
        return load_family(path), path
    return parse_family_text(path.read_text(), 2 if q is None else q), path


def cmd_catalog(args) -> int:
    for entry in seed_catalog():
        m, n, length, width = entry.params
        print(f"{entry.id:24s} {entry.kind:5s} (M={m}, N={n}, L={length}, Z={width})  {entry.note}")
    return 0


def cmd_construct(args) -> int:
    inputs: list[Path] = []
    if args.builder == "theorem2":
        if args.seed:
            if args.declared_z is not None or args.q is not None:
                raise ValueError("--declared-z and --q go with --seed-file; a catalog seed has both")
            entry = catalog_entry(args.seed)
            seed_fam, width = entry.family, entry.params[3]
        elif args.seed_file:
            seed_fam, path = _load_family_arg(args.seed_file, args.q)
            inputs.append(path)
            if args.declared_z is None:
                raise ValueError("--declared-z is required with --seed-file")
            width = args.declared_z
        else:
            raise ValueError("provide --seed or --seed-file")
        fam = theorem2_construct(seed_fam, width, force=args.force)
        width = width - 1  # output zone is one narrower than the seed's
        params = {"builder": "theorem2", "seed": args.seed, "zone": width}
    else:
        if args.preset:
            spec_dict = THEOREM3_PRESETS[args.preset]
        elif args.spec:
            spec_path = Path(args.spec)
            inputs.append(spec_path)
            spec_dict = json.loads(spec_path.read_text())
        else:
            raise ValueError("provide --preset or --spec")
        spec = _partition_from_dict(spec_dict)
        q, eta = spec_dict.get("q", 2), spec_dict.get("eta")
        if args.builder == "theorem3":
            if "v" not in spec_dict:
                raise ValueError("construction spec needs 'v' for theorem3")
            fam = theorem3_construct(spec, spec_dict["v"], q, eta)
            width = theorem3_zcz_width(spec)
        else:  # lemma2
            fam = lemma2_ccc(spec, q, eta)
            width = fam.length
        params = {"builder": args.builder, "spec": spec_dict, "zone": width}
    verdict = check_kind("ccc" if args.builder == "lemma2" else "eczcs", fam, width)
    text = (format_family_text(fam) if args.format == "text"
            else json.dumps(family_to_json(fam), indent=1) + "\n")
    params["verdict"] = verdict.to_json()
    _write_output(args.out, text, f"construct {args.builder}", params, inputs)
    if not verdict.passed:
        print("auto-verification FAILED", file=sys.stderr)
        return 1
    print(
        f"built (M={fam.num_sets}, N={fam.set_size}, L={fam.length}) family, "
        f"verified at zone width {width}",
        file=sys.stderr,
    )
    return 0


def _partition_from_dict(spec_dict: dict) -> PartitionSpec:
    """Read a construction spec: the part orderings as parts or pi, cross-checked against
    an optional U (the unordered parts) and k."""
    check_document(spec_dict, (
        (("m", "v", "k"), int, 0, "an integer"),
        (("q",), int, 0, "an integer", ALPHABET),
        (("parts", "pi", "U"), int, 2, "a list of integer lists"),
        (("eta",), int, 1, "a list of integers"),
    ), "construction spec", needs=("m",))
    if "parts" in spec_dict and "pi" in spec_dict:
        raise ValueError("construction spec takes 'parts' or 'pi', not both")
    raw = spec_dict.get("parts", spec_dict.get("pi"))
    if raw is None:
        raise ValueError("construction spec needs a 'parts' (or 'pi') list of orderings")
    parts = tuple(tuple(part) for part in raw)
    spec = PartitionSpec(spec_dict["m"], parts)
    if "k" in spec_dict and spec_dict["k"] != spec.k:
        raise ValueError(f"declared k={spec_dict['k']} but {spec.k} parts were given")
    if "U" in spec_dict and [sorted(u) for u in spec_dict["U"]] != [sorted(p) for p in parts]:
        raise ValueError("declared U does not match the part orderings")
    return spec


def cmd_verify(args) -> int:
    fam, path = _load_family_arg(args.family, args.q)
    zoned = args.kind in ("zcz", "zccs", "szccs", "eczcs")
    if (args.Z is not None) != zoned:  # mocs and ccc cover every shift
        raise ValueError(f"--Z is {'required' if zoned else 'not used'} for the {args.kind} check")
    verdict = check_kind(args.kind, fam, args.Z or 0)
    payload = verdict.to_json()
    payload["kind"] = args.kind
    payload["Z"] = args.Z
    payload["measured_width"] = measure_zcz_width(fam) if args.measure else None
    text = json.dumps(payload, indent=1) + "\n"
    _write_output(args.out, text, "verify", {"kind": args.kind, "Z": args.Z}, [path])
    return 0 if verdict.passed else 1


_PAIR_FORMS = "rho:m1,m2 | rhohat:m1,m2 | accf:m.n,m.n | pccf:m.n,m.n"


def cmd_profile(args) -> int:
    fam, path = _load_family_arg(args.family, args.q)
    kind, _, rest = args.pair.partition(":")
    try:  # two set indices m, or two set.member indices m.n
        pair = [[int(x) for x in part.split(".")] for part in rest.split(",")]
    except ValueError:
        pair = []
    arity = {"rho": 1, "rhohat": 1, "accf": 2, "pccf": 2}.get(kind)
    if [len(index) for index in pair] != [arity, arity]:
        raise ValueError(f"--pair {args.pair!r} is none of the forms {_PAIR_FORMS}")
    for index in pair:
        for i, count, what in zip(index, (fam.num_sets, fam.set_size), ("set", "member")):
            if not 0 <= i < count:
                raise ValueError(f"{what} index {i} outside 0..{count - 1}")
    if arity == 1:
        (m1,), (m2,) = pair
        profile = (profile_set_corr if kind == "rho" else profile_cross_channel)(fam, m1, m2)
    else:
        s0, s1 = (fam.sets[m].members[n] for m, n in pair)
        profile = (profile_accf if kind == "accf" else profile_pccf)(s0, s1)
    text = profile.to_csv()
    _write_output(args.out, text, "profile", {"pair": args.pair}, [path])
    return 0


def cmd_train(args) -> int:
    fam, path = _load_family_arg(args.family, args.q)
    cfg = GSMConfig(args.nt, args.na)
    tm = build_training_matrix(fam, cfg, source=path.name)
    verdict = check_design_criterion(tm, args.delay_spread)
    meta = training_matrix_meta(tm)
    meta["criterion"] = verdict.to_json()
    meta["delay_spread"] = args.delay_spread
    params = {"nt": args.nt, "na": args.na, "delay_spread": args.delay_spread}
    _write_output(args.out, training_matrix_to_csv(tm), "train", params, [path])
    if args.out:
        Path(str(args.out) + ".meta.json").write_text(json.dumps(meta, indent=1) + "\n")
    else:
        print(json.dumps(meta["criterion"], indent=1), file=sys.stderr)
    return 0 if verdict.passed else 1


# the keys each matrix kind needs beside kind, nt and na, and the keys it may also hold
_MATRIX_KEYS = {
    "family": (("path",), ("q",)),
    "seed": (("id",), ()),
    "random-binary": (("blocks", "block_length"), ("rng_seed",)),
    "zadoff-chu": (("blocks", "block_length"), ("roots",)),
}


def _read_sim_config(path: Path) -> dict:
    """Load a simulate config, naming its first missing, unread, mistyped or out-of-bounds key."""
    config = json.loads(path.read_text())
    # seeds key numpy generators, which take only non-negative integers
    check_document(config, (
        (("ebn0_db",), (int, float), 1, "a list of numbers"),
        (("delay_spreads",), int, 1, "a list of integers"),
        (("trials",), int, 0, "an integer"),
        (("seed",), int, 0, "an integer", NON_NEGATIVE),
        (("matrix_id",), str, 0, "a string"),
        (("matrix",), dict, 0, "an object"),
    ), "simulate config", needs=("ebn0_db", "delay_spreads", "trials", "seed", "matrix"))
    matrix = config["matrix"]
    check_document(matrix, (
        (("nt", "na", "blocks", "block_length", "q"), int, 0, "an integer"),
        (("rng_seed",), int, 0, "an integer", NON_NEGATIVE),
        (("roots",), int, 1, "a list of integers"),
        (("kind", "path", "id"), str, 0, "a string"),
    ), "simulate config 'matrix'", needs=("kind",))
    kind = matrix["kind"]
    if kind not in _MATRIX_KEYS:
        raise ValueError(f"unknown training matrix kind {kind!r}")
    needs, optional = _MATRIX_KEYS[kind]
    # every type is checked above, so this row only names a key the kind lacks or never reads
    check_document(matrix, ((("kind", "nt", "na", *needs, *optional), object, 0, ""),),
                   f"simulate config 'matrix' of kind {kind!r}", needs=("nt", "na", *needs))
    return config


def _matrix_from_config(spec: dict, base_dir: Path):
    cfg = GSMConfig(spec["nt"], spec["na"])
    if spec["kind"] == "family":
        fam, path = _load_family_arg(str(base_dir / spec["path"]), spec.get("q"),
                                     q_name="simulate config 'matrix' key 'q'")
        return build_training_matrix(fam, cfg, source=spec["path"]), [path]
    if spec["kind"] == "seed":
        entry = catalog_entry(spec["id"])
        return build_training_matrix(entry.family, cfg, source=spec["id"]), []
    if spec["kind"] == "random-binary":
        rng = np.random.default_rng(spec.get("rng_seed", 0))
        return baseline_random_binary(cfg, spec["blocks"], spec["block_length"], rng), []
    if spec["block_length"] > MAX_ALPHABET // 2:  # zadoff-chu: the alphabet of length L is Z_2L
        raise ValueError(f"simulate config 'matrix' key 'block_length' must be at most "
                         f"{MAX_ALPHABET // 2} for zadoff-chu, got {spec['block_length']}")
    roots = tuple(spec["roots"]) if "roots" in spec else None
    return baseline_zadoff_chu(cfg, spec["blocks"], spec["block_length"], roots), []


def cmd_simulate(args) -> int:
    config_path = Path(args.config)
    config = _read_sim_config(config_path)
    ebn0_db = tuple(config["ebn0_db"])
    if not all(map(math.isfinite, ebn0_db)):
        raise ValueError(f"Eb/N0 values must be finite, got {ebn0_db}")
    tm, extra_inputs = _matrix_from_config(config["matrix"], config_path.parent)
    sim = SimConfig(
        ebn0_db=ebn0_db,
        delay_spreads=tuple(config["delay_spreads"]),
        trials=config["trials"],
        seed=config["seed"],
        matrix_id=config.get("matrix_id", config["matrix"]["kind"]),
    )
    report = monte_carlo_mse(tm, sim)
    params = {
        "ebn0_db": list(sim.ebn0_db),
        "delay_spreads": list(sim.delay_spreads),
        "trials": sim.trials,
        "matrix_id": sim.matrix_id,
        "rng_scheme": RNG_SCHEME,
    }
    inputs = [config_path, *extra_inputs]
    _write_output(args.out, report.to_csv(), "simulate", params, inputs, seed=sim.seed)
    failed = sum(p.failed for p in report.points)
    if failed:
        print(
            f"{failed} of {len(report.points)} grid points failed: rank-deficient training",
            file=sys.stderr,
        )
        return 1
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command's parser, built on first use: parsing keeps no state, and every message
    goes to the sys.stdout or sys.stderr of the call."""
    parser = argparse.ArgumentParser(prog="eczcs", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("catalog", help="list the built-in seed families").set_defaults(func=cmd_catalog)

    con = sub.add_parser("construct", help="run a construction and auto-verify its output")
    con_sub = con.add_subparsers(dest="builder", required=True)
    t2 = con_sub.add_parser("theorem2", help="double a code-set seed into an enhanced family")
    source = t2.add_mutually_exclusive_group()
    source.add_argument("--seed", help="catalog seed id")
    source.add_argument("--seed-file", help="family file holding the seed")
    t2.add_argument("--declared-z", type=int, help="seed zone width (required with --seed-file)")
    t2.add_argument("--force", action="store_true", help="skip seed re-verification")
    for builder in ("theorem3", "lemma2"):
        p = con_sub.add_parser(
            builder,
            help="chained Boolean-function construction"
            + (" (complete code)" if builder == "lemma2" else ""),
        )
        source = p.add_mutually_exclusive_group()
        source.add_argument("--preset", choices=sorted(THEOREM3_PRESETS))
        source.add_argument("--spec", help="JSON file with m, q, v, parts, eta")
    for p in con_sub.choices.values():
        p.add_argument("--out", help="output family file")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.set_defaults(func=cmd_construct)
    t2.add_argument("--q", type=int, help="alphabet of text seed files (default 2)")

    ver = sub.add_parser("verify", help="classify a family; exit 0 pass, 1 fail, 2 error")
    ver.add_argument("family")
    ver.add_argument("--kind", required=True, choices=("zcz", "zccs", "szccs", "eczcs", "mocs", "ccc"))
    ver.add_argument("--Z", type=int, help="zone width (zcz, zccs, szccs and eczcs only)")
    ver.add_argument("--q", type=int, help="alphabet of text family files (default 2)")
    ver.add_argument("--measure", action="store_true", help="also report the measured zone width")
    ver.add_argument("--out")
    ver.set_defaults(func=cmd_verify)

    prof = sub.add_parser("profile", help="tabulate a correlation profile as CSV")
    prof.add_argument("family")
    prof.add_argument("--pair", required=True, help=_PAIR_FORMS)
    prof.add_argument("--q", type=int, help="alphabet of text family files (default 2)")
    prof.add_argument("--out")
    prof.set_defaults(func=cmd_profile)

    tr = sub.add_parser("train", help="build a training matrix and check the design criterion")
    tr.add_argument("family")
    tr.add_argument("--nt", type=int, required=True)
    tr.add_argument("--na", type=int, required=True)
    tr.add_argument("--lambda", dest="delay_spread", type=int, required=True)
    tr.add_argument("--q", type=int, help="alphabet of text family files (default 2)")
    tr.add_argument("--out")
    tr.set_defaults(func=cmd_train)

    sim = sub.add_parser("simulate", help="Monte-Carlo channel-estimation MSE report")
    sim.add_argument("--config", required=True, help="JSON simulation configuration")
    sim.add_argument("--out")
    sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
