"""Frequency-selective channel sampling, LS estimation, and MSE reports.

The noise model maps Eb/N0 in dB to a noise variance sigma^2 =
10^(-EbN0/10) with unit-energy transmitted symbols; any monotone mapping
preserves the comparisons the reports are used for, and the chosen one is
recorded in every CSV header.  All randomness flows from one master seed
through one counter-derived generator per TRIAL_BLOCK trials, so reports
reproduce bit for bit; manifests name this RNG_SCHEME, new in 0.2.0.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .sequences import Family, PhaseSequence, as_ints
from .training import GSMConfig, TrainingMatrix, build_ls_model_matrix, build_training_matrix

NOISE_MODEL = "sigma2 = 10^(-EbN0_dB/10), unit-energy symbols"
TRIAL_BLOCK = 32
RNG_SCHEME = f"pcg64(seed, point, block), {TRIAL_BLOCK} trials per block"


class RankDeficientTraining(np.linalg.LinAlgError):
    """The normal matrix of a training design is singular."""


def noise_variance(ebn0_db: float) -> float:
    return 10.0 ** (-ebn0_db / 10.0)


def mse_floor(sigma2: float, energy: float) -> float:
    """The smallest normalized MSE any training of this energy can reach."""
    return sigma2 / energy


def sample_channel(delay_spread: int, n_antennas: int, rng: np.random.Generator,
                   count: int) -> np.ndarray:
    """Independent complex Gaussian taps, variance 1/(delay_spread+1) each.

    Every antenna sees delay_spread + 1 taps whose expected total power is
    one.  ``count`` channels are drawn at once, shape (count, n_antennas,
    delay_spread + 1): all real parts first, then all imaginary parts.
    """
    _at_least(0, delay_spread=delay_spread, count=count)
    taps = delay_spread + 1
    return _complex_normal(rng, math.sqrt(1.0 / (2 * taps)), (count, n_antennas, taps))


def _at_least(low: int, **sizes: int) -> None:
    for name, value in sizes.items():
        if value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")


def _complex_normal(rng: np.random.Generator, scale: float, shape) -> np.ndarray:
    """scale * (re + 1j * im) from one standard_normal draw of shape (2, *shape), all real
    parts first, each half scaled straight into the float view of its part of the result."""
    out = np.empty(shape, dtype=complex)
    re, im = rng.standard_normal((2, *shape))
    np.multiply(scale, re, out=out.real)
    np.multiply(scale, im, out=out.imag)
    return out


def _normal_matrix(X: np.ndarray, matrix_id: str = "") -> np.ndarray:
    """The normal matrix X^H X, or RankDeficientTraining when it is singular."""
    normal = X.conj().T @ X
    dim = normal.shape[0]
    if np.linalg.matrix_rank(normal) < dim:
        raise RankDeficientTraining(
            f"training matrix {matrix_id or '<unnamed>'} is rank deficient: "
            f"{dim} unknowns but a singular normal matrix"
        )
    return normal


def ls_estimate(X: np.ndarray, y: np.ndarray, *, matrix_id: str = "") -> np.ndarray:
    """Least-squares channel estimate solve(X^H X, X^H y).

    Raises :class:`RankDeficientTraining` when the normal matrix is
    singular (for example, two antennas transmitting identical rows).
    """
    normal = _normal_matrix(X, matrix_id)
    rhs = X.conj().T @ y
    return np.linalg.solve(normal, rhs)


def analytic_mse(X: np.ndarray, sigma2: float) -> float:
    """Normalized LS estimation MSE sigma2 * Tr((X^H X)^-1) / n_columns.

    Equals sigma2 / E exactly when the design criterion holds, and is
    strictly larger otherwise (the column norms pin the eigenvalue sum).
    """
    normal = _normal_matrix(X)
    return float(sigma2 * np.trace(np.linalg.inv(normal)).real / normal.shape[0])


@dataclass(frozen=True)
class SimConfig:
    """Grid, trial count, and master seed for one Monte-Carlo run.

    Every Eb/N0 must give a finite positive noise variance, except +inf:
    the noiseless limit, sigma^2 = 0 exactly.
    """

    ebn0_db: tuple[float, ...]
    delay_spreads: tuple[int, ...]
    trials: int
    seed: int
    matrix_id: str = ""

    def __post_init__(self) -> None:
        as_ints((self.trials,), "trial count")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if not self.ebn0_db or not self.delay_spreads:
            raise ValueError("both grids must be nonempty")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        object.__setattr__(self, "ebn0_db", tuple(float(x) for x in self.ebn0_db))
        object.__setattr__(self, "delay_spreads", as_ints(self.delay_spreads, "delay spread"))
        if min(self.delay_spreads) < 0:  # worded as the LS model's width check words it
            raise ValueError("delay spread must lie in [0, matrix width)")
        for db in self.ebn0_db:
            try:
                sigma2 = noise_variance(db)
            except OverflowError:
                sigma2 = math.inf
            if not (0.0 < sigma2 < math.inf or db == math.inf):
                raise ValueError(f"Eb/N0 {db:g} dB gives no finite positive noise variance")


@dataclass(frozen=True)
class MSEPoint:
    ebn0_db: float
    delay_spread: int
    empirical_mse: float | None
    analytic_mse: float | None
    floor: float
    trials: int
    matrix_id: str
    failed: bool = False


@dataclass(frozen=True)
class MSEReport:
    points: tuple[MSEPoint, ...]

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write(f"# noise model: {NOISE_MODEL}\n")
        writer = csv.writer(out)
        writer.writerow(
            ["EbN0_dB", "lambda", "empirical_mse", "analytic_mse", "floor", "trials", "matrix_id"]
        )
        for p in self.points:
            writer.writerow(
                [
                    f"{p.ebn0_db:g}",
                    p.delay_spread,
                    "failed" if p.failed else f"{p.empirical_mse:.10e}",
                    "failed" if p.failed else f"{p.analytic_mse:.10e}",
                    f"{p.floor:.10e}",
                    p.trials,
                    p.matrix_id,
                ]
            )
        return out.getvalue()


def monte_carlo_mse(tm: TrainingMatrix, cfg: SimConfig) -> MSEReport:
    """Empirical and analytic normalized MSE over the configured grid.

    Grid point ``index`` runs its trials in blocks of TRIAL_BLOCK, the last
    one partial.  Block b draws from ``default_rng((seed, index, b))`` the
    taps, ``sample_channel(spread, Nt, rng, count)``, then the real and then
    the imaginary (count, width) noise.  The estimator, the inverse normal
    matrix applied to X^H y as in :func:`ls_estimate`, and the analytic
    value, :func:`analytic_mse`, are factored once per delay spread.  A
    singular design marks its grid points as failed instead of raising.
    """
    energy = float(tm.energy)
    points = []
    models: dict[int, tuple | None] = {}
    for index, (ebn0, spread) in enumerate(product(cfg.ebn0_db, cfg.delay_spreads)):
        sigma2 = noise_variance(ebn0)
        floor = mse_floor(sigma2, energy)
        if spread not in models:
            X = build_ls_model_matrix(tm, spread)
            try:
                inverse = np.linalg.inv(_normal_matrix(X))
                models[spread] = (X, inverse @ X.conj().T, np.trace(inverse).real)
            except RankDeficientTraining:
                models[spread] = None
        if models[spread] is None:
            points.append(
                MSEPoint(ebn0, spread, None, None, floor, cfg.trials, cfg.matrix_id, failed=True)
            )
            continue
        X, solver, inverse_trace = models[spread]
        width, dim = X.shape
        noise_scale = math.sqrt(sigma2 / 2.0)
        total = 0.0
        for block, start in enumerate(range(0, cfg.trials, TRIAL_BLOCK)):
            count = min(TRIAL_BLOCK, cfg.trials - start)
            rng = np.random.default_rng((cfg.seed, index, block))
            taps = sample_channel(spread, tm.num_rows, rng, count).reshape(count, dim)
            noise = _complex_normal(rng, noise_scale, (count, width))
            error = (taps @ X.T + noise) @ solver.T - taps
            total += float(np.vdot(error, error).real)
        empirical = total / (cfg.trials * dim)
        analytic = float(sigma2 * inverse_trace / dim)
        points.append(MSEPoint(ebn0, spread, empirical, analytic, floor, cfg.trials, cfg.matrix_id))
    return MSEReport(tuple(points))


def zadoff_chu(length: int, root: int) -> PhaseSequence:
    """Constant-amplitude sequence exp(-1j*pi*root*t*(t+1)/length) on Z_2L."""
    if length < 1:
        raise ValueError("length must be positive")
    if math.gcd(root, length) != 1:
        raise ValueError(f"root {root} is not coprime with length {length}")
    q = 2 * length
    phases = tuple((-root * t * (t + 1)) % q for t in range(length))
    return PhaseSequence(q, phases)


def default_zc_roots(length: int, count: int) -> tuple[int, ...]:
    """The smallest `count` roots coprime to the length, all below it unless it is 1."""
    roots = [r for r in range(1, length if length > 1 else count + 1) if math.gcd(r, length) == 1]
    if len(roots) < count:
        raise ValueError(f"cannot find {count} distinct roots below length {length}")
    return tuple(roots[:count])


def baseline_random_binary(
    cfg: GSMConfig, blocks: int, block_length: int, rng: np.random.Generator
) -> TrainingMatrix:
    """Random +-1 sequences dropped into the standard sparse layout."""
    _at_least(1, blocks=blocks, block_length=block_length)
    draws = [[rng.integers(0, 2, block_length) for _ in range(blocks)] for _ in range(cfg.active_antennas)]
    return build_training_matrix(Family.from_array(2, np.array(draws)), cfg, source="random-binary")


def baseline_zadoff_chu(
    cfg: GSMConfig, blocks: int, block_length: int, roots: tuple[int, ...] | None = None
) -> TrainingMatrix:
    """Distinct constant-amplitude sequences in the standard sparse layout."""
    _at_least(1, blocks=blocks, block_length=block_length)
    needed = cfg.active_antennas * blocks
    if roots is None:
        roots = default_zc_roots(block_length, needed)
    if len(roots) != needed:
        raise ValueError(f"need {needed} roots, got {len(roots)}")
    phases = np.reshape([zadoff_chu(block_length, r).array() for r in roots], (-1, blocks, block_length))
    return build_training_matrix(Family.from_array(2 * block_length, phases), cfg, source="zadoff-chu")
