import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from eczcs import __version__, family_to_json, format_family_text, load_family, load_fixture_family
from eczcs import profile_accf, profile_cross_channel, profile_pccf, profile_set_corr
from eczcs import cli
from eczcs.cli import build_parser, main
from eczcs.simulate import RNG_SCHEME


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_module_entry_point_runs():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "eczcs.cli", "--version"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0
    assert done.stdout.strip() == __version__


def test_main_behaves_as_a_fresh_process_on_every_call(tmp_path, monkeypatch, table4):
    """The parser is built once per process; each main call exits and prints as a fresh
    ``python -m eczcs.cli`` does, on the sys.stdout and sys.stderr of that call."""
    fam_file, cfg_file = tmp_path / "t4.txt", tmp_path / "sim.json"
    fam_file.write_text(format_family_text(table4))
    cfg_file.write_text(json.dumps({
        "matrix": {"kind": "seed", "id": "zccs-2-2-12-10", "nt": 4, "na": 2},
        "ebn0_db": [12.0], "delay_spreads": [9], "trials": 100, "seed": 3,
    }))
    calls = [
        ["train", str(fam_file), "--nt", "4", "--na", "2", "--lambda", "9"],
        ["train", str(fam_file), "--nt", "four", "--na", "2", "--lambda", "9"],
        ["--version"],
        ["simulate", "--config", str(cfg_file)],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"), COLUMNS="80")
    fresh = []  # bytes decoded as they are: text mode would turn the CSV's \r\n into \n
    for argv in calls:
        done = subprocess.run([sys.executable, "-m", "eczcs.cli", *argv], capture_output=True, env=env, timeout=60)
        fresh.append((done.returncode, done.stdout.decode(), done.stderr.decode()))
    assert [code for code, _, _ in fresh] == [0, 2, 0, 0]
    assert "invalid int value: 'four'" in fresh[1][2] and fresh[2][1] == __version__ + "\n"
    monkeypatch.setenv("COLUMNS", "80")
    for _ in range(2):
        for argv, done in zip(calls, fresh):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            assert (code, out.getvalue(), err.getvalue()) == done, argv
    assert build_parser() is build_parser()


def test_catalog_lists_seeds(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert "zccs-2-2-12-10" in out


def test_construct_theorem2_emits_length24_table(tmp_path, capsys, table4):
    out_file = tmp_path / "fam.txt"
    code, _, err = run(
        capsys,
        "construct", "theorem2", "--seed", "zccs-2-2-12-10",
        "--out", str(out_file), "--format", "text",
    )
    assert code == 0
    assert out_file.read_text() == format_family_text(table4)
    manifest = json.loads((tmp_path / "fam.txt.manifest.json").read_text())
    assert manifest["command"] == "construct theorem2"
    code, out, err = run(capsys, "construct", "theorem2", "--out", str(tmp_path / "none.txt"))
    assert code == 2 and "provide --seed or --seed-file" in err and out == ""
    seed_file, from_file = tmp_path / "seed.txt", tmp_path / "from_file.txt"
    seed_file.write_text(format_family_text(load_fixture_family("zccs_2x2x12")))
    code, _, _ = run(capsys, "construct", "theorem2", "--seed-file", str(seed_file),
                     "--declared-z", "10", "--out", str(from_file), "--format", "text")
    assert code == 0 and from_file.read_text() == format_family_text(table4)  # text seeds: q = 2


def test_construct_theorem2_declared_width_outside_seed_exits_2(tmp_path, capsys):
    """A declared seed width outside 1..L is an input error, with or without --force."""
    seed_file, out_file = tmp_path / "seed.txt", tmp_path / "fam.txt"
    seed_file.write_text(format_family_text(load_fixture_family("zccs_2x2x12")))
    for extra in (["--declared-z", "0"], ["--declared-z", "13", "--force"]):
        code, out, err = run(capsys, "construct", "theorem2", "--seed-file", str(seed_file), *extra,
                             "--out", str(out_file))
        assert code == 2 and f"declared seed width {extra[1]} outside 1..12" in err, (extra, err)
        assert out == "" and not out_file.exists()


def test_construct_theorem3_preset_emits_length32_table(tmp_path, capsys, table5):
    out_file = tmp_path / "fam.txt"
    code, _, _ = run(
        capsys,
        "construct", "theorem3", "--preset", "eczcs-4-2-32-8",
        "--out", str(out_file), "--format", "text",
    )
    assert code == 0
    assert out_file.read_text() == format_family_text(table5)


def test_unknown_catalog_seed_is_named_unquoted(tmp_path, capsys):
    """A missing catalog seed is reported as its message, not as a quoted KeyError."""
    config = {"matrix": {"kind": "seed", "id": "nope", "nt": 4, "na": 2},
              "ebn0_db": [10.0], "delay_spreads": [3], "trials": 5, "seed": 1}
    (tmp_path / "sim.json").write_text(json.dumps(config))
    for argv in (["construct", "theorem2", "--seed", "nope"],
                 ["simulate", "--config", str(tmp_path / "sim.json")]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: no catalog seed 'nope' (known: ") and '"' not in err, err


def test_construct_unknown_preset_is_usage_error(tmp_path, capsys):
    for argv in (
        ["construct", "theorem3", "--preset", "nope"],
        # --q is the alphabet of text family files, which theorem3 and lemma2 never read
        ["construct", "theorem3", "--preset", "eczcs-4-2-32-8", "--q", "4"],
        ["construct", "lemma2", "--preset", "eczcs-4-2-32-8", "--q", "4"],
        # simulate reads its grid, trials and seed from the config alone
        *(["simulate", "--config", "sim.json", flag, "3"]
          for flag in ("--trials", "--seed", "--ebn0", "--lambda")),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


OPTION_CENSUS = {
    "": ["--version"],
    "catalog": [],
    "construct": [],
    "construct theorem2": ["--seed", "--seed-file", "--declared-z", "--force", "--out", "--format", "--q"],
    "construct theorem3": ["--preset", "--spec", "--out", "--format"],
    "construct lemma2": ["--preset", "--spec", "--out", "--format"],
    "verify": ["family", "--kind", "--Z", "--q", "--measure", "--out"],
    "profile": ["family", "--pair", "--q", "--out"],
    "train": ["family", "--nt", "--na", "--lambda", "--q", "--out"],
    "simulate": ["--config", "--out"],
}


def parser_census(parser, path=""):
    """Every argument but -h of every command, keyed by the command's words."""
    census = {path: []}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                census.update(parser_census(sub, f"{path} {name}".strip()))
        elif not isinstance(action, argparse._HelpAction):
            census[path].append(action.option_strings[0] if action.option_strings else action.dest)
    return census


def test_option_census():
    """Each argument doubles the configurations to cover, so a new one must be added here too."""
    assert parser_census(build_parser()) == OPTION_CENSUS


def test_construct_theorem3_spec_with_unordered_parts(tmp_path, capsys, table5):
    spec = {
        "m": 5, "q": 2, "k": 2, "v": 1,
        "U": [[1, 2, 4], [3, 5]],
        "pi": [[4, 1, 2], [5, 3]],
        "eta": [0, 0, 1, 0, 0, 1],
    }
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    out_file = tmp_path / "fam.txt"
    code, _, _ = run(capsys, "construct", "theorem3", "--spec", str(spec_file),
                     "--out", str(out_file), "--format", "text")
    assert code == 0
    assert out_file.read_text() == format_family_text(table5)
    spec["U"] = [[1, 2, 3], [4, 5]]
    spec_file.write_text(json.dumps(spec))
    code, _, err = run(capsys, "construct", "theorem3", "--spec", str(spec_file))
    assert code == 2 and "U" in err


def test_construct_lemma2_from_spec(tmp_path, capsys):
    spec = {"m": 3, "q": 2, "parts": [[1, 2, 3]]}
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    out_file = tmp_path / "ccc.json"
    code, _, err = run(capsys, "construct", "lemma2", "--spec", str(spec_file), "--out", str(out_file))
    assert code == 0
    fam = load_family(out_file)
    assert (fam.num_sets, fam.set_size, fam.length) == (2, 2, 8)


def test_verify_exit_codes(tmp_path, capsys, table4):
    fam_file = tmp_path / "t4.txt"
    fam_file.write_text(format_family_text(table4))
    code, out, _ = run(capsys, "verify", str(fam_file), "--kind", "eczcs", "--Z", "9")
    assert code == 0
    assert json.loads(out)["passed"] is True

    code, out, _ = run(capsys, "verify", str(fam_file), "--kind", "eczcs", "--Z", "10")
    assert code == 1
    violations = json.loads(out)["violations"]
    assert {"check": "same-set", "indices": [0, 0], "shift": 10, "magnitude": 8.0} in violations

    code, _, err = run(capsys, "verify", str(tmp_path / "missing.txt"), "--kind", "eczcs", "--Z", "9")
    assert code == 2
    code, out, err = run(capsys, "verify", str(fam_file), "--kind", "eczcs", "--Z", "9", "--q", "1026")
    assert code == 2 and "--q must be at most 1024, got 1026" in err and out == ""
    for kind in ("zccs", "eczcs"):
        code, out, err = run(capsys, "verify", str(fam_file), "--kind", kind, "--Z", "-3")
        assert code == 2 and "error" in err and out == ""
    bad = tmp_path / "bad.txt"
    bad.write_text("++*+\n")
    code, _, err = run(capsys, "verify", str(bad), "--kind", "eczcs", "--Z", "1")
    assert code == 2 and "error" in err


def test_verify_measure_flag(tmp_path, capsys, table4):
    fam_file = tmp_path / "t4.txt"
    fam_file.write_text(format_family_text(table4))
    code, out, _ = run(capsys, "verify", str(fam_file), "--kind", "eczcs", "--Z", "9", "--measure")
    assert json.loads(out)["measured_width"] == 9


def test_profile_command(tmp_path, capsys, table4):
    fam_file = tmp_path / "t4.txt"
    fam_file.write_text(format_family_text(table4))
    code, out, _ = run(capsys, "profile", str(fam_file), "--pair", "rho:0,0")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    mags = {int(u): float(m) for u, m, _ in rows}
    assert mags[0] == 48.0 and mags[10] == 8.0
    code, out, _ = run(capsys, "profile", str(fam_file), "--pair", "accf:0.0,0.1")
    assert code == 0
    code, _, err = run(capsys, "profile", str(fam_file), "--pair", "weird:0,0")
    assert code == 2
    for pair, message in (
        ("rho:0,5", "set index 5 outside 0..1"),
        ("accf:0.0,0.9", "member index 9 outside 0..1"),
        ("pccf:-1.0,0.0", "set index -1 outside 0..1"),
        *((pair, "none of the forms rho:m1,m2 | rhohat:m1,m2 | accf:m.n,m.n | pccf:m.n,m.n")
          for pair in ("rho:0", "accf:0,1", "pccf:0.0.1,0.0")),
    ):
        code, out, err = run(capsys, "profile", str(fam_file), "--pair", pair)
        assert code == 2 and message in err and out == ""


def test_profile_command_writes_to_csv_bytes(tmp_path, capsys, table5):
    """Every --pair form on the 4-set fixture writes the profile's to_csv() bytes, to stdout and
    to --out alike, with the manifest's keys unchanged."""
    fam_file = tmp_path / "t5.txt"
    fam_file.write_text(format_family_text(table5))
    s0, s1 = table5.sets[0].members[0], table5.sets[3].members[1]
    wants = {
        "rho:0,3": profile_set_corr(table5, 0, 3),
        "rhohat:0,3": profile_cross_channel(table5, 0, 3),
        "accf:0.0,3.1": profile_accf(s0, s1),
        "pccf:0.0,3.1": profile_pccf(s0, s1),
    }
    for pair, profile in wants.items():
        want = profile.to_csv()
        code, out, _ = run(capsys, "profile", str(fam_file), "--pair", pair)
        assert code == 0 and out == want, pair
        out_file = tmp_path / "profile.csv"
        code, out, _ = run(capsys, "profile", str(fam_file), "--pair", pair, "--out", str(out_file))
        assert code == 0 and out == "" and out_file.read_bytes() == want.encode(), pair
        manifest = json.loads((tmp_path / "profile.csv.manifest.json").read_text())
        assert sorted(manifest) == ["command", "inputs", "outputs", "params", "seed", "version"]
        assert manifest["command"] == "profile" and manifest["params"] == {"pair": pair}
        assert manifest["outputs"] == [str(out_file)] and list(manifest["inputs"]) == [str(fam_file)]


def test_train_command(tmp_path, capsys, table4):
    fam_file = tmp_path / "t4.txt"
    fam_file.write_text(format_family_text(table4))
    psi_file = tmp_path / "psi.csv"
    code, _, _ = run(
        capsys, "train", str(fam_file), "--nt", "4", "--na", "2", "--lambda", "9",
        "--out", str(psi_file),
    )
    assert code == 0
    meta = json.loads((tmp_path / "psi.csv.meta.json").read_text())
    assert meta["criterion"]["passed"] is True and meta["E"] == 48
    code, _, _ = run(
        capsys, "train", str(fam_file), "--nt", "4", "--na", "2", "--lambda", "10",
        "--out", str(psi_file),
    )
    assert code == 1
    code, _, err = run(
        capsys, "train", str(fam_file), "--nt", "8", "--na", "3", "--lambda", "2",
    )
    assert code == 2


def test_simulate_command_deterministic(tmp_path, capsys):
    config = {
        "matrix": {"kind": "seed", "id": "zccs-2-2-24-10-nonc2", "nt": 4, "na": 2},
        "ebn0_db": [12.0],
        "delay_spreads": [9],
        "trials": 100,
        "seed": 3,
        "matrix_id": "nonc2",
    }
    cfg_file = tmp_path / "sim.json"
    cfg_file.write_text(json.dumps(config))
    out_file = tmp_path / "report.csv"
    code, _, _ = run(capsys, "simulate", "--config", str(cfg_file), "--out", str(out_file))
    assert code == 0
    first = out_file.read_text()
    code, _, _ = run(capsys, "simulate", "--config", str(cfg_file), "--out", str(out_file))
    assert out_file.read_text() == first
    manifest = json.loads((out_file.parent / "report.csv.manifest.json").read_text())
    assert manifest["seed"] == 3 and str(cfg_file) in manifest["inputs"]
    assert manifest["version"] == __version__ and manifest["params"]["rng_scheme"] == RNG_SCHEME


def test_simulate_config_errors_and_failed_points(tmp_path, capsys):
    good = {
        "matrix": {"kind": "seed", "id": "zccs-2-2-12-10", "nt": 4, "na": 2},
        "ebn0_db": [10.0],
        "delay_spreads": [3],
        "trials": 5,
        "seed": 1,
    }
    cfg_file = tmp_path / "sim.json"
    (tmp_path / "fam.json").write_text(json.dumps({"q": 2, "sets": [[[0, 0], [0, 1]]]}))

    def without(doc, key):
        return {k: v for k, v in doc.items() if k != key}

    for config, named in (
        (without(good, "ebn0_db"), "simulate config needs key 'ebn0_db'"),
        (without(good, "seed"), "simulate config needs key 'seed'"),
        (dict(good, matrix=without(good["matrix"], "kind")), "'matrix' needs key 'kind'"),
        (dict(good, matrix=without(good["matrix"], "nt")), "'matrix' of kind 'seed' needs key 'nt'"),
        (dict(good, matrix=without(good["matrix"], "id")), "'matrix' of kind 'seed' needs key 'id'"),
        (dict(good, matrix={"kind": "family", "nt": 4, "na": 2}),
         "'matrix' of kind 'family' needs key 'path'"),
        (dict(good, matrix={"kind": "zadoff-chu", "nt": 4, "na": 2, "blocks": 1}),
         "'matrix' of kind 'zadoff-chu' needs key 'block_length'"),
        (dict(good, ebn0_db=5), "'ebn0_db'"),
        ([good], "JSON object"),
        (dict(good, matrix=[4, 2]), "'matrix'"),
        (dict(good, trials="5"), "'trials'"),
        (dict(good, delay_spreads=[3.5]), "'delay_spreads'"),
        (dict(good, seed=True), "'seed'"),
        (dict(good, ebn0_db=[True]), "'ebn0_db'"),
        (dict(good, matrix=dict(good["matrix"], nt=[4])), "'nt'"),
        (dict(good, matrix=dict(good["matrix"], na="2")), "'na'"),
        (dict(good, matrix=dict(good["matrix"], id=7)), "'id'"),
        (dict(good, matrix=dict(good["matrix"], kind=["seed"])), "'kind'"),
        (dict(good, matrix={"kind": "zadoff-chu", "nt": 4, "na": 2, "blocks": 1,
                            "block_length": 8, "roots": 5}), "'roots'"),
        (dict(good, matrix={"kind": "zadoff-chu", "nt": 4, "na": 2, "blocks": 1,
                            "block_length": 8.0}), "'block_length'"),
        (dict(good, matrix={"kind": "random-binary", "nt": 4, "na": 2, "blocks": 1,
                            "block_length": 8, "rng_seed": 1.5}), "'rng_seed'"),
        (dict(good, matrix={"kind": "family", "path": ["fam.json"], "nt": 4, "na": 2}), "'path'"),
        (dict(good, matrix={"kind": "family", "path": "fam.txt", "q": True, "nt": 4, "na": 2}), "'q'"),
        (dict(good, matrix_id={"a": [1]}), "'matrix_id'"),
        (dict(good, ebn0_db=[-4000]), "noise variance"),
        (dict(good, matrix={"kind": "family", "path": "fam.txt", "q": 1026, "nt": 4, "na": 2}),
         "'q' must be at most 1024, got 1026"),
        (dict(good, matrix={"kind": "family", "path": "fam.json", "q": 8, "nt": 1, "na": 1}),
         "a JSON family carries its own q"),
        (dict(good, matrix={"kind": "zadoff-chu", "nt": 4, "na": 2, "blocks": 1,
                            "block_length": 513}), "'block_length' must be at most 512"),
        (dict(good, seed=-3), "'seed' must be non-negative, got -3"),
        (dict(good, matrix={"kind": "random-binary", "nt": 4, "na": 2, "blocks": 1,
                            "block_length": 8, "rng_seed": -1}), "'rng_seed' must be non-negative, got -1"),
        (dict(good, matrix={"kind": "random-binary", "nt": 4, "na": 2, "blocks": 0,
                            "block_length": 8}), "blocks must be >= 1, got 0"),
        (dict(good, matrix={"kind": "random-binary", "nt": 4, "na": 2, "blocks": 1,
                            "block_length": -3}), "block_length must be >= 1, got -3"),
        (dict(good, matrix={"kind": "zadoff-chu", "nt": 4, "na": 2, "blocks": 0,
                            "block_length": 8}), "blocks must be >= 1, got 0"),
        (dict(good, matrix={"kind": "zadoff-chu", "nt": 4, "na": 2, "blocks": 1,
                            "block_length": 0}), "block_length must be >= 1, got 0"),
    ):
        cfg_file.write_text(json.dumps(config))
        code, _, err = run(capsys, "simulate", "--config", str(cfg_file))
        assert code == 2 and named in err and "--q" not in err, (config, err)  # simulate has no --q
    for number in ("1e400", "NaN"):  # JSON numbers that parse to non-finite floats
        cfg_file.write_text(json.dumps(dict(good, ebn0_db=[0])).replace("[0]", f"[{number}]"))
        code, _, err = run(capsys, "simulate", "--config", str(cfg_file))
        assert code == 2 and "finite" in err, (number, err)
    # two identical Zadoff-Chu roots give a singular normal matrix at every grid point
    config = dict(good, ebn0_db=[10.0, 20.0], matrix={
        "kind": "zadoff-chu", "nt": 4, "na": 2, "blocks": 1, "block_length": 8, "roots": [1, 1],
    })
    cfg_file.write_text(json.dumps(config))
    out_file = tmp_path / "report.csv"
    code, _, err = run(capsys, "simulate", "--config", str(cfg_file), "--out", str(out_file))
    assert code == 1
    assert "2 of 2 grid points failed" in err
    assert out_file.read_text().count(",failed,failed,") == 2
    assert (tmp_path / "report.csv.manifest.json").exists()


def test_simulate_rejects_negative_lambda_and_zero_trials(tmp_path, capsys):
    config = {
        "matrix": {"kind": "seed", "id": "zccs-2-2-12-10", "nt": 4, "na": 2},
        "ebn0_db": [10.0],
        "delay_spreads": [3],
        "trials": 7,
        "seed": 1,
    }
    cfg_file = tmp_path / "sim.json"
    for change, named in (({"delay_spreads": [-1]}, "delay spread"), ({"trials": 0}, "trial"),
                          ({"trials": 10**400}, "trial count must lie in [1, 2^53]")):
        cfg_file.write_text(json.dumps(dict(config, **change)))
        code, out, err = run(capsys, "simulate", "--config", str(cfg_file))
        assert code == 2 and out == "", change
        assert err.startswith("error:") and named in err and "Traceback" not in err, err


def test_malformed_family_and_spec_documents_exit_2(tmp_path, capsys):
    fam_file, spec_file = tmp_path / "fam.json", tmp_path / "spec.json"
    fam = {"q": 2, "sets": [[[0, 0], [0, 1]]]}
    for doc, named in (
        ({"q": 2, "sets": 5}, "'sets'"),
        ([1, 2], "JSON object"),
        (dict(fam, N=None), "'N'"),
        (dict(fam, q=2.9), "'q'"),
        (dict(fam, M=True), "'M'"),
        (dict(fam, sets=[[[0, 0.5]]]), "'sets'"),
        (dict(fam, sets=[[[0, True]]]), "'sets'"),
        (dict(fam, sets=[["01"]]), "'sets'"),
        (dict(fam, q=1026), "family key 'q' must be at most 1024, got 1026"),
        ({"sets": fam["sets"]}, "family document needs key 'q'"),
        ({"q": 2}, "family document needs key 'sets'"),
    ):
        fam_file.write_text(json.dumps(doc))
        code, _, err = run(capsys, "verify", str(fam_file), "--kind", "mocs")
        assert code == 2 and named in err, (doc, err)
    fam_file.write_text(json.dumps(dict(fam, q=1024)))  # the largest alphabet is read
    assert run(capsys, "verify", str(fam_file), "--kind", "mocs")[0] in (0, 1)
    spec = {"m": 3, "q": 2, "v": 1, "parts": [[1, 2], [3]], "eta": [0, 0, 0, 0]}
    for doc, named in (
        (dict(spec, parts=5), "'parts'"),
        (dict(spec, v=None), "'v'"),
        (dict(spec, eta=5), "'eta'"),
        (dict(spec, U=7), "'U'"),
        (dict(spec, q=[2]), "'q'"),
        (dict(spec, q=2.9), "'q'"),
        (dict(spec, m=3.5), "'m'"),
        (dict(spec, k="2"), "'k'"),
        (dict(spec, eta=[0.5, 0, 0, 0]), "'eta'"),
        (dict(spec, pi=[[1, 2], [True]]), "'pi'"),
        (dict(spec, q=1026), "construction spec key 'q' must be at most 1024, got 1026"),
        ([spec], "JSON object"),
        ({k: x for k, x in spec.items() if k != "v"}, "construction spec needs 'v' for theorem3"),
        ({k: x for k, x in spec.items() if k != "m"}, "construction spec needs key 'm'"),
    ):
        spec_file.write_text(json.dumps(doc))
        code, _, err = run(capsys, "construct", "theorem3", "--spec", str(spec_file))
        assert code == 2 and named in err, (doc, err)
    spec_file.write_text(json.dumps({"m": 3, "parts": [[1, 2, 3]], "pi": [[3, 2, 1]]}))
    code, out, err = run(capsys, "construct", "lemma2", "--spec", str(spec_file))
    assert code == 2 and "'parts'" in err and "'pi'" in err and out == "", err


SMALL_INTS = st.integers(-3, 40)  # no example may ask for a huge matrix, trial count or GBF
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | SMALL_INTS | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
# (command, valid document, key path, JSON kinds of that key, list nesting depth)
FUZZ_DOCS = {
    "family": ({"q": 2, "M": 1, "N": 2, "L": 2, "sets": [[[0, 0], [0, 1]]]},
               {"q": (int, 0), "M": (int, 0), "N": (int, 0), "L": (int, 0), "sets": (int, 3)}),
    "spec": ({"m": 3, "q": 2, "v": 1, "k": 2, "parts": [[1, 2], [3]], "U": [[1, 2], [3]],
              "eta": [0, 1, 0, 1]},
             {"m": (int, 0), "q": (int, 0), "v": (int, 0), "k": (int, 0), "parts": (int, 2),
              "U": (int, 2), "eta": (int, 1)}),
    "simulate": ({"matrix": {"kind": "seed", "id": "zccs-2-2-12-10", "nt": 4, "na": 2},
                  "ebn0_db": [10.0], "delay_spreads": [3], "trials": 3, "seed": 1, "matrix_id": "m"},
                 {"ebn0_db": ((int, float), 1), "delay_spreads": (int, 1), "trials": (int, 0),
                  "seed": (int, 0), "matrix_id": (str, 0), "matrix": (dict, 0),
                  "matrix.kind": (str, 0), "matrix.id": (str, 0), "matrix.nt": (int, 0),
                  "matrix.na": (int, 0)}),
}
FUZZ_KEYS = [(doc, key) for doc, (_, kinds) in FUZZ_DOCS.items() for key in kinds]


def typed(x, kinds, depth):
    if depth:
        return isinstance(x, list) and all(typed(y, kinds, depth - 1) for y in x)
    return isinstance(x, kinds) and not isinstance(x, bool)


def well_typed(kinds, depth):
    base = SMALL_INTS if kinds is int else st.text(max_size=4) if kinds is str else JSON_VALUES
    for _ in range(depth):
        base = st.lists(base, max_size=4)
    return base


@st.composite
def one_key_replaced(draw):
    doc, key = draw(st.sampled_from(FUZZ_KEYS))
    kinds, depth = FUZZ_DOCS[doc][1][key]
    value = draw(JSON_VALUES | well_typed(kinds, depth))
    return doc, key, value, typed(value, kinds, depth)


@given(one_key_replaced())
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cli_exit_codes_under_one_replaced_key(tmp_path_factory, case):
    """Any JSON value in any one key: nothing escapes main, the code is 0/1/2, a wrong type exits 2."""
    doc, key, value, ok = case
    data = json.loads(json.dumps(FUZZ_DOCS[doc][0]))
    *parents, leaf = key.split(".")
    target = data
    for parent in parents:
        target = target[parent]
    target[leaf] = value
    path = tmp_path_factory.getbasetemp() / f"fuzz-{doc}.json"
    path.write_text(json.dumps(data))
    argv = {
        "family": ["verify", str(path), "--kind", "mocs"],
        "spec": ["construct", "theorem3", "--spec", str(path)],
        "simulate": ["simulate", "--config", str(path)],
    }[doc]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)
    if not ok:
        assert code == 2, (doc, key, value)


README_ARGV = [  # the README's command lines, which read and write the working directory
    line.split("#")[0].split()[1:]
    for line in (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    if line.startswith("eczcs ")
]
CENSUS = parser_census(build_parser())
ARGV_TOKENS = sorted(
    {token for argv in README_ARGV for token in argv}
    | {word for command in CENSUS for word in command.split()}
    | {name for names in CENSUS.values() for name in names if name.startswith("-")}
)


@st.composite
def one_token_changed(draw):
    argv = list(draw(st.sampled_from(README_ARGV)))
    token = draw(st.sampled_from(ARGV_TOKENS) | SMALL_INTS.map(str))
    edit = draw(st.sampled_from(("replace", "drop", "append")))
    if edit == "append":
        return argv + [token]
    i = draw(st.integers(0, len(argv) - 1))
    return argv[:i] + [token] * (edit == "replace") + argv[i + 1:]


@given(one_token_changed())
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cli_exit_codes_under_one_changed_argv_token(argv):
    """A README command line with one token replaced, dropped or appended exits 0, 1 or 2."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            Path("fam.txt").write_text(format_family_text(load_fixture_family("eczcs_2x2x24")))
            Path("spec.json").write_text(json.dumps({"m": 3, "q": 2, "parts": [[1, 2, 3]]}))
            Path("sim.json").write_text(json.dumps({
                "matrix": {"kind": "seed", "id": "zccs-2-2-24-10-nonc2", "nt": 4, "na": 2},
                "ebn0_db": [4, 8], "delay_spreads": [9], "trials": 3, "seed": 7,
            }))
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
        except SystemExit as exc:
            code = exc.code
        finally:
            os.chdir(home)
    assert code in (0, 1, 2), argv


def test_inputs_that_would_be_ignored_exit_2(tmp_path, capsys, table4):
    """Two sources for one input, or a value no check reads, is a usage error."""
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"m": 3, "q": 2, "v": 1, "parts": [[1, 2, 3]]}))
    seed_file = tmp_path / "seed.txt"
    seed_file.write_text(format_family_text(load_fixture_family("zccs_2x2x12")))
    for argv in (
        ["construct", "theorem3", "--preset", "eczcs-4-2-32-8", "--spec", str(spec_file)],
        ["construct", "lemma2", "--spec", str(spec_file), "--preset", "eczcs-4-2-32-8"],
        ["construct", "theorem2", "--seed", "zccs-2-2-12-10", "--seed-file", str(seed_file)],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "not allowed with" in capsys.readouterr().err
    for flag, value in (("--declared-z", "3"), ("--q", "4")):
        code, out, err = run(capsys, "construct", "theorem2", "--seed", "zccs-2-2-12-10",
                             flag, value)
        assert code == 2 and flag in err and out == ""
    fam_file = tmp_path / "fam.txt"
    fam_file.write_text(format_family_text(table4))
    for kind in ("mocs", "ccc"):
        out_file = tmp_path / f"{kind}.json"
        code, _, err = run(capsys, "verify", str(fam_file), "--kind", kind, "--Z", "5",
                           "--out", str(out_file))
        assert code == 2 and "--Z" in err and not out_file.exists()
        assert run(capsys, "verify", str(fam_file), "--kind", kind)[0] == 1
    # --q is the alphabet of text family files; a JSON family carries its own
    json_fam, json_seed = tmp_path / "f.json", tmp_path / "seed.json"
    json_fam.write_text(json.dumps(family_to_json(table4)))
    json_seed.write_text(json.dumps(family_to_json(load_fixture_family("zccs_2x2x12"))))
    for argv in (
        ["verify", str(json_fam), "--kind", "eczcs", "--Z", "9", "--q", "4"],
        ["train", str(json_fam), "--nt", "4", "--na", "2", "--lambda", "9", "--q", "8"],
        ["profile", str(json_fam), "--pair", "rho:0,0", "--q", "4"],
        ["construct", "theorem2", "--seed-file", str(json_seed), "--declared-z", "4", "--q", "6"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and "a JSON family carries its own q" in err and out == "", argv


def test_simulate_matrix_kind_is_required(tmp_path, capsys):
    config = {"matrix": {"id": "zccs-2-2-12-10", "nt": 4, "na": 2},
              "ebn0_db": [10.0], "delay_spreads": [3], "trials": 3, "seed": 1}
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(config))
    code, out, err = run(capsys, "simulate", "--config", str(path), "--out", str(tmp_path / "r.csv"))
    assert code == 2 and "'kind'" in err and out == ""
    assert not (tmp_path / "r.csv").exists()


SIM_GRID = {"ebn0_db": [10.0], "delay_spreads": [0], "trials": 3, "seed": 1}
# a value for every key some matrix kind reads, valid for the kind that reads it
MATRIX_VALUES = {"path": "fam.txt", "q": 2, "id": "zccs-2-2-12-10", "blocks": 1,
                 "block_length": 8, "rng_seed": 3, "roots": [1, 3]}


def test_simulate_unknown_matrix_kind_exits_2_before_any_builder(tmp_path, capsys, monkeypatch):
    def no_builder(*args, **kwargs):
        raise AssertionError("a builder ran")

    for name in ("GSMConfig", "build_training_matrix", "catalog_entry", "_load_family_arg",
                 "baseline_random_binary", "baseline_zadoff_chu", "monte_carlo_mse"):
        monkeypatch.setattr(cli, name, no_builder)
    cfg_file, out_file = tmp_path / "sim.json", tmp_path / "r.csv"
    for kind, named in (("nope", "unknown training matrix kind 'nope'"),
                        (3, "simulate config 'matrix' key 'kind' must be a string"),
                        (None, "'kind'")):
        cfg_file.write_text(json.dumps(dict(SIM_GRID, matrix={"kind": kind, "nt": 4, "na": 2,
                                                              "id": "zccs-2-2-12-10"})))
        code, out, err = run(capsys, "simulate", "--config", str(cfg_file), "--out", str(out_file))
        assert code == 2 and named in err and out == "", (kind, err)
        assert not out_file.exists() and not (tmp_path / "r.csv.manifest.json").exists()


class ReadLog(dict):
    """A matrix object that records every key its reader looks up."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)


@pytest.mark.parametrize("kind", sorted(cli._MATRIX_KEYS))
@pytest.mark.parametrize("with_optional", (False, True))
def test_matrix_key_table_matches_the_builder(tmp_path, capsys, table4, kind, with_optional):
    """Each kind builds from exactly the keys _MATRIX_KEYS says it needs, and from those plus
    its optional keys; the builder reads every key given and none outside the table."""
    (tmp_path / "fam.txt").write_text(format_family_text(table4))
    needs, optional = cli._MATRIX_KEYS[kind]
    keys = (*needs, *optional) if with_optional else needs
    matrix = {"kind": kind, "nt": 4, "na": 2, **{key: MATRIX_VALUES[key] for key in keys}}
    cfg_file = tmp_path / "sim.json"
    cfg_file.write_text(json.dumps(dict(SIM_GRID, matrix=matrix)))
    code, _, err = run(capsys, "simulate", "--config", str(cfg_file), "--out", str(tmp_path / "r.csv"))
    assert code == 0, err
    spec = ReadLog(cli._read_sim_config(cfg_file)["matrix"])
    cli._matrix_from_config(spec, tmp_path)
    assert set(matrix) <= spec.read <= {"kind", "nt", "na", *needs, *optional}


def test_unread_keys_exit_2_naming_key_and_document(tmp_path, capsys, table4):
    spec_file, fam_file, cfg_file = tmp_path / "spec.json", tmp_path / "fam.json", tmp_path / "sim.json"
    out_file = tmp_path / "out.json"
    fam_file.write_text(json.dumps(dict(family_to_json(table4), comment="table 4")))
    seed = {"kind": "seed", "id": "zccs-2-2-12-10", "nt": 4, "na": 2}
    zadoff_chu = {"kind": "zadoff-chu", "nt": 4, "na": 2, "blocks": 1, "block_length": 8}
    family = {"kind": "family", "path": "fam.txt", "nt": 4, "na": 2}
    for doc, argv, named in (
        ({"m": 3, "q": 2, "parts": [[1, 2, 3]], "etta": [1, 1, 1, 1]},
         ["construct", "lemma2", "--spec", str(spec_file)], "construction spec has no key 'etta'"),
        (None, ["verify", str(fam_file), "--kind", "mocs"], "family document has no key 'comment'"),
        (dict(SIM_GRID, trails=9, matrix=seed), ["simulate", "--config", str(cfg_file)],
         "simulate config has no key 'trails'"),
        (dict(SIM_GRID, matrix=dict(seed, blocks=7)), ["simulate", "--config", str(cfg_file)],
         "simulate config 'matrix' of kind 'seed' has no key 'blocks'"),
        (dict(SIM_GRID, matrix=dict(zadoff_chu, q=4)), ["simulate", "--config", str(cfg_file)],
         "simulate config 'matrix' of kind 'zadoff-chu' has no key 'q'"),
        (dict(SIM_GRID, matrix=dict(family, rng_seed=3)), ["simulate", "--config", str(cfg_file)],
         "simulate config 'matrix' of kind 'family' has no key 'rng_seed'"),
    ):
        if doc is not None:
            (spec_file if argv[0] == "construct" else cfg_file).write_text(json.dumps(doc))
        code, out, err = run(capsys, *argv, "--out", str(out_file))
        assert code == 2 and named in err and out == "", (argv, err)
        assert not out_file.exists() and not (tmp_path / "out.json.manifest.json").exists()
    # lemma2 reads a theorem3 spec or preset, whose v it does not use
    spec_file.write_text(json.dumps({"m": 3, "q": 2, "v": 1, "parts": [[1, 2, 3]]}))
    for source in (["--preset", "eczcs-4-2-32-8"], ["--spec", str(spec_file)]):
        assert run(capsys, "construct", "lemma2", *source)[0] == 0, source
