"""Correctness oracle for the benchmark outputs, run outside the timed region.

It checks what the paper guarantees (Theorem 2, Theorem 3, Lemma 2, the
design criterion of a verified family) and recomputes a seeded subset of
verdicts with floating-point correlations taken by FFT, a path that shares
nothing with the exact integer engines it checks.  Monte-Carlo MSE is
held to the analytic value within six standard errors worked out from the
trial count, so a different random stream is not a failure.

The oracle encodes no target the code is known to miss (such as the 25 %
excess at delay spread 11 that the acceptance suite pins).

``check_item`` returns a list of failure reasons, empty when the item's
outputs are right.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from pathlib import Path

import numpy as np

from eczcs import (
    GSMConfig,
    __version__,
    build_training_matrix,
    family_from_json,
    format_family_text,
    load_fixture_family,
    simulate,
)

TOL = 1e-7  # float correlations are sums of at most a few thousand unit terms
MC_SIGMAS = 6.0
SUBSET_FRACTION = 0.25


# ------------------------------------------------------- float correlations


def units(phases, q: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.asarray(phases, dtype=float) / q)


def family_array(fam) -> np.ndarray:
    """Complex (M, N, L) image of a family."""
    return units([[s.phases for s in st.members] for st in fam.sets], fam.q)


def aperiodic_tables(fam, rotated: bool) -> np.ndarray:
    """(M, M, 2L-1) set-level correlation sums, index i holding shift i-(L-1).

    Entry [m1, m2, u] is sum_n sum_k x[m1,n][k+u] conj(x[m2,n'][k]) with
    n' = n, or n' = (n+1) mod N for the rotated cross-channel sums.
    """
    x = family_array(fam)
    length = fam.length
    spec = np.fft.fft(x, 2 * length, axis=-1)
    other = np.roll(spec, -1, axis=1) if rotated else spec
    full = np.fft.ifft(np.einsum("anp,bnp->abp", spec, other.conj()), axis=-1)
    return full[..., [u % (2 * length) for u in range(-(length - 1), length)]]


def _nonzero(value) -> bool:
    return abs(value) > TOL


def _violations(table, length, pairs_shifts, label_same, label_cross, rotated=False):
    out = {}
    num_sets = table.shape[0]
    for m1 in range(num_sets):
        for m2 in range(num_sets):
            same = m1 == m2 and not rotated
            for u in pairs_shifts(same):
                val = table[m1, m2, u + length - 1]
                if _nonzero(val):
                    label = label_same if same else label_cross
                    out[(label, (m1, m2), u)] = abs(val)
    return out


def float_zccs(fam, width: int, plain=None) -> dict:
    length, peak = fam.length, fam.set_size * fam.length
    plain = aperiodic_tables(fam, False) if plain is None else plain
    out = _violations(
        plain, length, lambda same: range(1, width) if same else range(0, width),
        "same-set", "cross-set",
    )
    for m in range(fam.num_sets):
        val = plain[m, m, length - 1]
        if abs(val - peak) > TOL:
            out[("peak", (m, m), 0)] = abs(val)
    return out


def float_ccc(fam, plain=None) -> dict:
    out = float_zccs(fam, fam.length, plain)
    if fam.num_sets != fam.set_size:
        out[("ccc-shape", (fam.num_sets, fam.set_size), 0)] = float(abs(fam.num_sets - fam.set_size))
    return out


def float_szccs(fam, width: int, plain=None) -> dict:
    length = fam.length
    plain = aperiodic_tables(fam, False) if plain is None else plain
    window = set(range(1, width + 1)) | set(range(length - width, length))
    same = sorted(u for u in window if 1 <= u <= length - 1)
    cross = sorted(u for u in window | {0} if 0 <= u <= length - 1)
    return _violations(plain, length, lambda s: same if s else cross, "same-set", "cross-set")


def float_eczcs(fam, width: int, plain=None, rotated=None) -> dict:
    length = fam.length
    rotated = aperiodic_tables(fam, True) if rotated is None else rotated
    out = float_szccs(fam, width, plain)
    tail = [u for u in range(length - width, length) if 0 <= u <= length - 1]
    shifts = sorted({s for u in tail for s in (u, -u)})
    out.update(_violations(rotated, length, lambda s: shifts, "", "cross-channel", rotated=True))
    return out


def float_zcz_set(fam, width: int) -> dict:
    """Periodic zero-zone violations of the family flattened set by set."""
    x = units([[p for s in st.members for p in s.phases] for st in fam.sets], fam.q)
    spec = np.fft.fft(x, axis=-1)
    table = np.fft.ifft(spec[:, None, :] * spec[None, :, :].conj(), axis=-1)
    size, length = x.shape
    top = min(width, length - 1)
    out = {}
    for i in range(size):
        for j in range(size):
            for u in range(1 if i == j else 0, top + 1):
                if _nonzero(table[i, j, u]):
                    out[("zcz-auto" if i == j else "zcz-cross", (i, j), u)] = abs(table[i, j, u])
    return out


def float_width(fam, plain, rotated) -> int:
    """Largest width whose float E-CZCS test passes, -1 if none does."""
    for width in range(fam.length, -1, -1):
        if not float_eczcs(fam, width, plain, rotated):
            return width
    return -1


def verdict_map(verdict) -> dict:
    return {(v.check, tuple(v.indices), v.shift): v.magnitude for v in verdict.violations}


def compare_verdict(name: str, verdict, expected: dict) -> list[str]:
    got = verdict_map(verdict)
    if set(got) != set(expected):
        extra = sorted(set(got) - set(expected))[:3]
        missing = sorted(set(expected) - set(got))[:3]
        return [f"{name}: violations differ from the float oracle (extra {extra}, missing {missing})"]
    bad = [k for k in got if abs(got[k] - expected[k]) > 1e-6 * max(1.0, expected[k])]
    return [f"{name}: violation magnitudes differ at {bad[:3]}"] if bad else []


# --------------------------------------------------- chained-function oracle


def chain_sequences(m, parts, q, eta, head_bits, tail_bits):
    """Phases of f + q/2 (sum of chosen heads + sum of chosen tails).

    f is the quadratic chain along each part plus the affine part eta,
    evaluated on the bits of the index read least significant first.
    """
    idx = np.arange(1 << m)
    x = {j: (idx >> (j - 1)) & 1 for j in range(1, m + 1)}
    half = q // 2
    f = np.full(1 << m, eta[0], dtype=np.int64)
    for part in parts:
        for a, b in zip(part, part[1:]):
            f += half * x[a] * x[b]
    for j in range(1, m + 1):
        f += eta[j] * x[j]
    for alpha, bit in enumerate(head_bits):
        f += half * bit * x[parts[alpha][0]]
    for alpha, bit in enumerate(tail_bits):
        f += half * bit * x[parts[alpha][-1]]
    return tuple(int(p) for p in f % q)


def theorem3_phases(m, parts, v, q, eta):
    k = len(parts)
    return [
        [chain_sequences(m, parts, q, eta,
                         [(n >> (v - a)) & 1 for a in range(1, v + 1)],
                         [(p >> (a - 1)) & 1 for a in range(1, k + 1)])
         for n in range(1 << v)]
        for p in range(1 << k)
    ]


def lemma2_phases(m, parts, q, eta):
    k = len(parts)
    return [
        [chain_sequences(m, parts, q, eta,
                         [(kappa >> a) & 1 for a in range(k)],
                         [(nu >> a) & 1 for a in range(k)])
         for kappa in range(1 << k)]
        for nu in range(1 << k)
    ]


def phases_of(fam):
    return [[tuple(s.phases) for s in st.members] for st in fam.sets]


# ------------------------------------------------------------- workloads


def subset(items: list[dict], seed: int) -> set[int]:
    """The seeded subset of items whose verdicts the float oracle recomputes."""
    rng = random.Random(f"oracle:{seed}")
    return {i for i in range(len(items)) if rng.random() < SUBSET_FRACTION}


def check_sweep(item: dict, out: dict, deep: bool) -> list[str]:
    fam, code, width, verdicts = out["family"], out["code"], out["width"], out["verdicts"]
    m, parts, v, q, eta = item["m"], item["parts"], item["v"], item["q"], item["eta"]
    k = len(parts)
    errors = []
    if (fam.num_sets, fam.set_size, fam.length, fam.q) != (1 << k, 1 << v, 1 << m, q):
        errors.append("theorem3: wrong family shape")
    if (code.num_sets, code.set_size, code.length) != (1 << k, 1 << k, 1 << m):
        errors.append("lemma2: wrong code shape")
    if width != 1 << (parts[0][0] - 1):
        errors.append("theorem3: zone width is not 2^(h-1)")
    for name in ("eczcs", "szccs", "zccs", "zcz", "ccc"):
        if not verdicts[name].passed:
            errors.append(f"{name}: guaranteed verdict failed")
    if 2 * width >= fam.length and not verdicts["mocs"].passed:
        errors.append("mocs: a zone of half the length implies a mutually orthogonal set")
    if deep:
        if phases_of(fam) != theorem3_phases(m, parts, v, q, eta):
            errors.append("theorem3: sequences differ from the chained function")
        if phases_of(code) != lemma2_phases(m, parts, q, eta):
            errors.append("lemma2: sequences differ from the chained function")
        plain = aperiodic_tables(fam, False)
        expected = {
            "eczcs": float_eczcs(fam, width, plain),
            "szccs": float_szccs(fam, width, plain),
            "zccs": float_zccs(fam, min(width + 1, fam.length), plain),
            "mocs": float_zccs(fam, fam.length, plain),
            "ccc": float_ccc(code),
            "zcz": float_zcz_set(fam, width),
        }
        for name, exp in expected.items():
            errors += compare_verdict(name, verdicts[name], exp)
    return errors


def _bound(fam) -> int:
    total = fam.set_size * fam.length
    return total // (2 * fam.num_sets) if fam.q == 2 else total // fam.num_sets - 1


def _meets_bound(fam, width) -> bool:
    if fam.q == 2:
        return 2 * width * fam.num_sets == fam.set_size * fam.length
    return (width + 1) * fam.num_sets == fam.set_size * fam.length


# the paper's Tables 4 and 5, kept apart from the zones the workload declares
KNOWN_FIXTURE_WIDTHS = {"eczcs_2x2x24": 9, "eczcs_4x2x32": 8}


def check_profile_csv(label: str, text: str, table_row: np.ndarray, length: int) -> list[str]:
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["u", "magnitude", "is_zero"] or len(rows) != 2 * length:
        return [f"{label}: malformed profile csv"]
    for (u, mag, zero), val in zip(rows[1:], table_row):
        want = abs(val)
        if abs(float(mag) - want) > 1e-6 * max(1.0, want) or int(zero) != (want <= TOL):
            return [f"{label}: shift {u} reads {mag}/{zero}, float oracle {want:.6g}"]
    if [int(r[0]) for r in rows[1:]] != list(range(-(length - 1), length)):
        return [f"{label}: wrong shift range"]
    return []


def check_zone(item: dict, out: dict, deep: bool) -> list[str]:
    fam, width = out["family"], out["width"]
    errors = []
    if width < out["guaranteed"]:
        errors.append(f"width {width} below the guaranteed {out['guaranteed']}")
    if out["bound"] != _bound(fam):
        errors.append("eczcs_bound disagrees with N*L/M - 1 (binary N*L/(2M))")
    plain, rotated = aperiodic_tables(fam, False), aperiodic_tables(fam, True)
    float_w = float_width(fam, plain, rotated)
    if width != float_w:
        errors.append(f"measured width {width}, float oracle {float_w}")
    if out["optimal"] != (_meets_bound(fam, width) and float_w == width):
        errors.append("is_optimal disagrees with the bound and the float oracle")
    binary_optimal = (item["kind"] == "theorem3" and item["q"] == 2) or item["kind"] == "doubled-ccc"
    if binary_optimal and not out["optimal"]:
        errors.append("a binary construction that meets the bound is not reported optimal")
    if item["kind"] == "fixture" and item["name"] in KNOWN_FIXTURE_WIDTHS:
        if width != KNOWN_FIXTURE_WIDTHS[item["name"]]:
            errors.append(f"fixture {item['name']} measured at {width}")
    for label, text in out["csv"].items():
        kind, _, pair = label.partition(":")
        m1, m2 = (int(x) for x in pair.split(","))
        table = rotated if kind == "rhohat" else plain
        errors += check_profile_csv(label, text, table[m1, m2], fam.length)
        if errors:
            break
    return errors


# ---------------------------------------------------------------- training


def float_rows(tm) -> np.ndarray:
    rows = np.zeros((tm.num_rows, tm.width), dtype=complex)
    for i, row in enumerate(tm.rows):
        for t, e in enumerate(row):
            if e is not None:
                rows[i, t] = np.exp(2j * np.pi * e / tm.q)
    return rows


def float_criterion(rows: np.ndarray, energy: int, delay_spread: int) -> set:
    """Row pairs and shifts breaking the design criterion (peak: shift 0 of i, i)."""
    spec = np.fft.fft(rows, axis=-1)
    corr = np.fft.ifft(spec[:, None, :] * spec[None, :, :].conj(), axis=-1)
    bad = set()
    for i in range(rows.shape[0]):
        if abs(corr[i, i, 0] - energy) > TOL:
            bad.add((i, i, 0))
        for j in range(rows.shape[0]):
            for u in range(1 if i == j else 0, delay_spread + 1):
                if _nonzero(corr[i, j, u]):
                    bad.add((i, j, u))
    return bad


def float_model(rows: np.ndarray, delay_spread: int) -> np.ndarray:
    return np.stack(
        [np.roll(rows[p], c) for p in range(rows.shape[0]) for c in range(delay_spread + 1)],
        axis=1,
    )


def check_mse(label, empirical, analytic, floor, trials, cov) -> list[str]:
    """Empirical MSE within MC_SIGMAS standard errors of the analytic value.

    The LS error of one trial is S*noise with covariance cov, so its
    squared norm has mean tr(cov) and variance tr(cov^2).
    """
    dim = cov.shape[0]
    want = float(np.trace(cov).real) / dim
    stderr = math.sqrt(float(np.trace(cov @ cov).real) / trials) / dim
    errors = []
    if abs(analytic - want) > 1e-8 * want:
        errors.append(f"{label}: analytic MSE {analytic:.6e}, oracle {want:.6e}")
    if abs(empirical - want) > MC_SIGMAS * stderr:
        errors.append(
            f"{label}: empirical MSE {empirical:.6e} is {abs(empirical - want) / stderr:.1f} "
            f"standard errors from {want:.6e}"
        )
    if want < floor * (1 - 1e-9):
        errors.append(f"{label}: analytic MSE below the floor")
    return errors


def check_matrix(item: dict, out: dict, deep: bool) -> list[str]:
    tm, criterion, model, report = out["matrix"], out["criterion"], out["model"], out["report"]
    zone = item["zone"]
    errors = []
    rows = float_rows(tm)
    for lam, verdict in enumerate(criterion):
        got = {tuple(v.indices) + (v.shift,) for v in verdict.violations
               if v.check not in ("sparsity", "row-energy")}
        layout = [v for v in verdict.violations if v.check in ("sparsity", "row-energy")]
        if layout or got != float_criterion(rows, tm.energy, lam):
            errors.append(f"criterion at lambda={lam} differs from the float oracle")
    guaranteed = item["source"] in ("fixture", "theorem2", "theorem3")
    if guaranteed:
        if not all(v.passed for v in criterion[: zone + 1]):
            errors.append(f"criterion fails inside the guaranteed zone 0..{zone}")
        if item["source"] == "fixture" and criterion[zone + 1].passed:
            errors.append(f"fixture passes the criterion at lambda={zone + 1}")
    X = float_model(rows, zone)
    if model.shape != X.shape or not np.allclose(model, X, atol=1e-12):
        errors.append("LS model matrix differs from the stacked circulant oracle")
    normal = X.conj().T @ X
    full_rank = np.linalg.matrix_rank(normal) == normal.shape[0]
    for point in report.points:
        label = f"MC at {point.ebn0_db:g} dB"
        sigma2 = 10.0 ** (-point.ebn0_db / 10.0)
        if abs(point.floor - sigma2 / tm.energy) > 1e-12 * point.floor:
            errors.append(f"{label}: wrong floor")
        if point.failed:
            if full_rank:
                errors.append(f"{label}: failed on a full-rank design")
            continue
        if not full_rank:
            errors.append(f"{label}: no failure on a rank-deficient design")
            continue
        cov = sigma2 * np.linalg.inv(normal)
        errors += check_mse(label, point.empirical_mse, point.analytic_mse, point.floor,
                            point.trials, cov)
        if deep:
            ref = simulate.analytic_mse(X, sigma2)
            if abs(ref - point.analytic_mse) > 1e-9 * ref:
                errors.append(f"{label}: report disagrees with analytic_mse")
        if criterion[zone].passed and abs(point.analytic_mse - point.floor) > 1e-9 * point.floor:
            errors.append(f"{label}: criterion holds but the analytic MSE is off the floor")
    return errors


# --------------------------------------------------------------------- cli


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_manifest(out_path: Path, command: str) -> list[str]:
    path = Path(str(out_path) + ".manifest.json")
    if not path.exists():
        return [f"{command}: no manifest"]
    manifest = json.loads(path.read_text())
    errors = []
    if manifest.get("command") != command or manifest.get("version") != __version__:
        errors.append(f"{command}: manifest names {manifest.get('command')!r}")
    if manifest.get("outputs") != [str(out_path)]:
        errors.append(f"{command}: manifest outputs {manifest.get('outputs')}")
    for name, digest in manifest.get("inputs", {}).items():
        if not Path(name).exists() or _sha256(Path(name)) != digest:
            errors.append(f"{command}: input digest of {name} does not match")
    return errors


def check_cli(item: dict, out: dict, fixture_text: str, table4_rows) -> list[str]:
    d = out["workdir"]
    errors = [f"{step}: exit code {code}" for step, code in out["codes"].items() if code != 0]
    if errors:
        return errors
    fam = family_from_json(json.loads((d / "fam.json").read_text()))
    if format_family_text(fam) != fixture_text:
        errors.append("construct: theorem2 of the catalog seed differs from eczcs_2x2x24")
    errors += check_manifest(d / "fam.json", "construct theorem2")
    errors += check_manifest(d / "verdict.json", "verify")
    errors += check_manifest(d / "psi.csv", "train")
    errors += check_manifest(d / "report.csv", "simulate")
    verdict = json.loads((d / "verdict.json").read_text())
    if not verdict["passed"] or verdict["Z"] != 9:
        errors.append("verify: the doubled seed fails at Z=9")
    meta = json.loads((d / "psi.csv.meta.json").read_text())
    if not meta["criterion"]["passed"] or meta["E"] != 48:
        errors.append("train: criterion fails at lambda=9")
    lines = [ln for ln in (d / "report.csv").read_text().splitlines() if not ln.startswith("#")]
    records = list(csv.DictReader(lines))
    if [float(r["EbN0_dB"]) for r in records] != list(out["config"]["ebn0_db"]):
        return errors + ["simulate: report grid differs from the config"]
    X = float_model(table4_rows, 9)
    normal = X.conj().T @ X
    for r in records:
        sigma2 = 10.0 ** (-float(r["EbN0_dB"]) / 10.0)
        cov = sigma2 * np.linalg.inv(normal)
        errors += check_mse(f"cli simulate at {r['EbN0_dB']} dB", float(r["empirical_mse"]),
                            float(r["analytic_mse"]), float(r["floor"]), int(r["trials"]), cov)
    return errors


# --------------------------------------------------------------- summaries


def summarize(item: dict, out: dict):
    """A value equal across passes exactly when the outputs are the same."""
    kind = item["kind"]
    if kind == "sweep":
        return (
            hash(tuple(map(tuple, phases_of(out["family"])))),
            tuple(sorted((n, tuple(v.violations)) for n, v in out["verdicts"].items())),
        )
    if kind == "matrix":
        return (
            tuple(tuple(v.violations) for v in out["criterion"]),
            out["model"].tobytes(),
            out["report"].to_csv(),
        )
    if kind == "cli":
        d = out["workdir"]
        texts = [(d / n).read_text() for n in ("fam.json", "verdict.json", "psi.csv", "report.csv")]
        return tuple(out["codes"].items()), tuple(texts)
    return (out["width"], out["bound"], out["optimal"], tuple(sorted(out["csv"].items())))


def check_item(item: dict, out: dict, deep: bool, context: dict) -> list[str]:
    kind = item["kind"]
    if kind == "sweep":
        return check_sweep(item, out, deep)
    if kind == "matrix":
        return check_matrix(item, out, deep)
    if kind == "cli":
        return check_cli(item, out, context["table4_text"], context["table4_rows"])
    return check_zone(item, out, deep)


def cli_context() -> dict:
    """Reference data for the CLI chain: the doubled seed is the 2x2x24 fixture."""
    table4 = load_fixture_family("eczcs_2x2x24")
    tm = build_training_matrix(table4, GSMConfig(4, 2))
    return {"table4_text": format_family_text(table4), "table4_rows": float_rows(tm)}
