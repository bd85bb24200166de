"""Byte-identity gate: one SHA-256 over every reported output of a fixed corpus.

The corpus is the four fixtures, the seed catalog, and Theorem 3 and
Lemma 2 families at q in {2, 4, 6, 8}.  The outputs are the zccs, szccs
and eczcs verdict JSON at every width, the mocs, ccc and flattened zcz
verdicts, the measured width and is_optimal, the rho / rho-hat and
member-pair profile CSVs, and, for families of two or more sets, the
training CSV, its metadata and the design-criterion verdicts.  Any change
to one byte of them changes the digest; a change that means to alter an
output must say why, version it and re-pin the digest.
"""

import hashlib
import json
import time

from eczcs import (
    GSMConfig,
    build_training_matrix,
    check_ccc,
    check_design_criterion,
    check_eczcs,
    check_mocs,
    check_szccs,
    check_zccs,
    check_zcz_set,
    flatten_to_zcz,
    is_optimal,
    lemma2_ccc,
    load_fixture_family,
    measure_zcz_width,
    profile_accf,
    profile_cross_channel,
    profile_pccf,
    profile_set_corr,
    seed_catalog,
    theorem3_construct,
    training_matrix_meta,
    training_matrix_to_csv,
)
from eczcs.gbf import PartitionSpec, optimal_theorem3_params

GOLDEN_SHA256 = "c99be5d97d15ee3804f1d2a42c6fa4627336b067985d89c3df99afac4ca16b3c"
FIXTURES = ("zccs_2x2x12", "zccs_2x2x24_nonc2", "eczcs_2x2x24", "eczcs_4x2x32")


def corpus():
    fams = [(name, load_fixture_family(name)) for name in FIXTURES]
    fams += [(entry.id, entry.family) for entry in seed_catalog()]
    for q in (2, 4, 6, 8):
        eta = tuple((3 * i + 1) % q for i in range(5))
        for k, v in ((2, 1), (3, 2)):
            fam = theorem3_construct(optimal_theorem3_params(4, k, v), v, q, eta)
            fams.append((f"theorem3-4-{k}-{v}-q{q}", fam))
        fams.append((f"lemma2-3-q{q}", lemma2_ccc(PartitionSpec(3, ((1, 2), (3,))), q, eta[:4])))
    return fams


def verdict(v) -> str:
    return json.dumps(v.to_json(), sort_keys=True)


def outputs(name, fam):
    """(key, text) for every reported output of one family."""
    for width in range(fam.length + 1):
        for kind, check in (("zccs", check_zccs), ("szccs", check_szccs), ("eczcs", check_eczcs)):
            yield f"{kind}@{width}", verdict(check(fam, width))
    yield "mocs", verdict(check_mocs(fam))
    yield "ccc", verdict(check_ccc(fam))
    measured = measure_zcz_width(fam)
    yield "width", str(measured)
    yield "optimal", str(is_optimal(fam, measured))
    flat = flatten_to_zcz(fam)
    for width in sorted({0, max(measured, 0), max(measured, 0) + 1, flat.length}):
        yield f"zcz@{width}", verdict(check_zcz_set(flat, width))
    for m1 in range(fam.num_sets):
        for m2 in range(fam.num_sets):
            yield f"rho:{m1},{m2}", profile_set_corr(fam, m1, m2).to_csv()
            yield f"rhohat:{m1},{m2}", profile_cross_channel(fam, m1, m2).to_csv()
    members = fam.sets[0].members
    yield "accf", profile_accf(members[0], members[-1]).to_csv()
    yield "pccf", profile_pccf(members[0], members[-1]).to_csv()
    if fam.num_sets >= 2:
        tm = build_training_matrix(fam, GSMConfig(4, 2), source=name)
        yield "train.csv", training_matrix_to_csv(tm)
        yield "train.meta", json.dumps(training_matrix_meta(tm), sort_keys=True)
        for spread in range(min(max(measured, 0) + 2, tm.width)):
            yield f"criterion@{spread}", verdict(check_design_criterion(tm, spread))


def corpus_digest() -> str:
    digest = hashlib.sha256()
    for name, fam in corpus():
        for key, text in outputs(name, fam):
            digest.update(f"{name}\t{key}\n{text}\n".encode())
    return digest.hexdigest()


def test_outputs_match_the_pinned_digest():
    start = time.perf_counter()
    got = corpus_digest()
    elapsed = time.perf_counter() - start
    assert got == GOLDEN_SHA256, "an output changed; version the change and re-pin the digest"
    assert elapsed <= 5.0, f"digest corpus took {elapsed:.2f} s, budget 5 s"
