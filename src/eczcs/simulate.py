"""Frequency-selective channel sampling, LS estimation, and MSE reports.

The noise model maps Eb/N0 in dB to a noise variance sigma^2 =
10^(-EbN0/10) with unit-energy transmitted symbols; any monotone mapping
preserves the comparisons the reports are used for, and the chosen one is
recorded in every CSV header.  All randomness flows from one master seed
through one counter-derived generator per grid point, so reports
reproduce bit for bit; manifests name this RNG_SCHEME.  For a full-rank
design the LS error of a trial is S n, the solver S = (X^H X)^-1 X^H
applied to the noise, whatever the channel.  S n is CN(0, sigma^2 (X^H X)^-1),
so over T trials its summed squared norm has the law of
sigma^2 sum_k G_k / mu_k, with mu_k the eigenvalues of X^H X and G_k iid
Gamma(T, 1): one spectrum per delay spread and one gamma draw per point.
The Monte Carlo reads X^H X from the periodic tally that the design
criterion caches on the training matrix, never building X: where the
criterion passes, X^H X = E*I exactly and every mu is E with no eigvalsh.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .cyclotomic import as_ints, root_table
from .sequences import Family, PhaseSequence
from .training import GSMConfig, TrainingMatrix, build_training_matrix, check_design_criterion
from .verify import periodic_hits

NOISE_MODEL = "sigma2 = 10^(-EbN0_dB/10), unit-energy symbols"
RNG_SCHEME = "pcg64(seed, point), standard_gamma(trials, dim) against 1/eigvalsh(X^H X)"


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
    delay_spread, n_antennas, count = _at_least(0, delay_spread=delay_spread, n_antennas=n_antennas,
                                                count=count)
    taps = delay_spread + 1
    scale = math.sqrt(1.0 / (2 * taps))
    out = np.empty((count, n_antennas, taps), dtype=complex)
    re, im = rng.standard_normal((2, *out.shape))
    np.multiply(scale, re, out=out.real)
    np.multiply(scale, im, out=out.imag)
    return out


def _at_least(low: int, **sizes) -> tuple[int, ...]:
    """The sizes as ints, each named when it is not an integer or is below low."""
    ints = tuple(as_ints((value,), name)[0] for name, value in sizes.items())
    for name, value in zip(sizes, ints):
        if value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")
    return ints


def _inverse_spectrum(normal: np.ndarray, matrix_id: str = "") -> np.ndarray:
    """1/mu for the eigenvalues mu of the normal matrix X^H X, largest first.

    Raises RankDeficientTraining when mu_min <= mu_max * dim * eps, the
    tolerance of numpy's rank test.
    """
    mu = np.linalg.eigvalsh(normal)
    dim = len(mu)
    if mu[0] <= mu[-1] * dim * np.finfo(float).eps:
        raise RankDeficientTraining(
            f"training matrix {matrix_id or '<unnamed>'} is rank deficient: "
            f"{dim} unknowns but a singular normal matrix"
        )
    return 1.0 / mu


def _normal_matrix(tm: TrainingMatrix, spread: int) -> np.ndarray:
    """X^H X for X = ``build_ls_model_matrix(tm, spread)`` from the periodic tally that the
    design criterion caches on ``tm``, in Toeplitz blocks: entry (c, c') of block (p, p') is
    R_p'p(c - c') for c >= c', conj R_pp'(c' - c) otherwise, where
    R_ab(u) = sum_k x_a[k+u] conj(x_b[k]) is the tally's [a, b, u] on the roots."""
    tally = periodic_hits(tm, tm.values, tm.mask, tm.q, spread).tally[:, :, : spread + 1]
    corr = tally @ root_table(tm.q)[: tally.shape[-1]]
    lag = np.subtract.outer(np.arange(spread + 1), np.arange(spread + 1))  # c - c'
    blocks = np.where(lag >= 0, corr.transpose(1, 0, 2)[:, :, abs(lag)], corr.conj()[:, :, abs(lag)])
    return blocks.transpose(0, 2, 1, 3).reshape(len(corr) * len(lag), -1)


def _mse(sigma2: float, inverse_spectrum: np.ndarray) -> float:
    return sigma2 * float(inverse_spectrum.sum()) / len(inverse_spectrum)


def ls_estimate(X: np.ndarray, y: np.ndarray, *, matrix_id: str = "") -> np.ndarray:
    """Least-squares channel estimate solve(X^H X, X^H y).

    Raises :class:`RankDeficientTraining` when the normal matrix is
    singular (for example, two antennas transmitting identical rows).
    """
    normal = X.conj().T @ X
    _inverse_spectrum(normal, matrix_id)
    return np.linalg.solve(normal, X.conj().T @ y)


def analytic_mse(X: np.ndarray, sigma2: float) -> float:
    """Normalized LS estimation MSE sigma2 * Tr((X^H X)^-1) / n_columns, the trace as sum(1/mu).

    Equals sigma2 / E exactly when the design criterion holds, and is
    strictly larger otherwise (the column norms pin the eigenvalue sum).
    """
    return _mse(sigma2, _inverse_spectrum(X.conj().T @ X))


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
        (trials,), (seed,) = as_ints((self.trials,), "trial count"), as_ints((self.seed,), "seed")
        if not 1 <= trials <= 2**53:  # the gamma shape is a float64, exact up to 2^53
            raise ValueError(f"trial count must lie in [1, 2^53], got {trials}")
        if not self.ebn0_db or not self.delay_spreads:
            raise ValueError("both grids must be nonempty")
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        vars(self).update(trials=trials, seed=seed, ebn0_db=tuple(float(x) for x in self.ebn0_db),
                          delay_spreads=as_ints(self.delay_spreads, "delay spread"))
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
    stderr: float | None = None  # standard error of empirical_mse
    cond: float | None = None  # condition number mu_max / mu_min of X^H X


@dataclass(frozen=True)
class MSEReport:
    points: tuple[MSEPoint, ...]

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write(f"# noise model: {NOISE_MODEL}\n")
        writer = csv.writer(out)
        writer.writerow("EbN0_dB lambda empirical_mse analytic_mse floor trials matrix_id stderr cond".split())
        for p in self.points:
            stats = (p.empirical_mse, p.analytic_mse, p.stderr, p.cond)
            mse, analytic, stderr, cond = ("failed" if p.failed else f"{v:.10e}" for v in stats)
            writer.writerow([f"{p.ebn0_db:g}", p.delay_spread, mse, analytic, f"{p.floor:.10e}",
                             p.trials, p.matrix_id, stderr, cond])
        return out.getvalue()


def monte_carlo_mse(tm: TrainingMatrix, cfg: SimConfig) -> MSEReport:
    """Empirical and analytic normalized MSE over the configured grid.

    The inverse spectrum 1/mu of X^H X, taken once per delay spread from
    the tally the design criterion caches on ``tm`` (1/E throughout where it
    passes), gives the analytic value, :func:`analytic_mse`, the standard error
    sigma^2 sqrt(sum(1/mu^2) / trials) / dim and the condition number
    mu_max / mu_min.  The summed squared LS error of the trials has the law
    of sigma^2 sum_k G_k / mu_k, G_k iid Gamma(trials, 1), so grid point
    ``index`` draws ``default_rng((seed, index)).standard_gamma(trials, dim)``
    and scales its dot product with 1/mu by sigma^2 / (trials * dim): the cost
    does not depend on the trial count, and sigma^2 = 0 gives an MSE of
    exactly 0.  A singular design marks its grid points as failed instead of
    raising.
    """
    energy = float(tm.energy)
    points = []
    spectra: dict[int, np.ndarray | None] = {}
    for index, (ebn0, spread) in enumerate(product(cfg.ebn0_db, cfg.delay_spreads)):
        sigma2 = noise_variance(ebn0)
        floor = mse_floor(sigma2, energy)
        if spread not in spectra:
            try:  # a design passing the criterion has X^H X = E*I exactly
                spectra[spread] = (np.full(tm.num_rows * (spread + 1), 1.0 / energy)
                                   if check_design_criterion(tm, spread).passed
                                   else _inverse_spectrum(_normal_matrix(tm, spread)))
            except RankDeficientTraining:
                spectra[spread] = None
        inv_mu = spectra[spread]
        if inv_mu is None:
            points.append(MSEPoint(ebn0, spread, None, None, floor, cfg.trials, cfg.matrix_id, failed=True))
            continue
        dim = len(inv_mu)
        gamma = np.random.default_rng((cfg.seed, index)).standard_gamma(cfg.trials, dim)
        empirical = sigma2 * float(gamma @ inv_mu) / (cfg.trials * dim)
        stderr = sigma2 * math.sqrt(float(inv_mu @ inv_mu) / cfg.trials) / dim
        points.append(MSEPoint(ebn0, spread, empirical, _mse(sigma2, inv_mu), floor, cfg.trials,
                               cfg.matrix_id, stderr=stderr, cond=float(inv_mu[0] / inv_mu[-1])))
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
    blocks, block_length = _at_least(1, blocks=blocks, block_length=block_length)
    draws = [[rng.integers(0, 2, block_length) for _ in range(blocks)] for _ in range(cfg.active_antennas)]
    return build_training_matrix(Family.from_array(2, np.array(draws)), cfg, source="random-binary")


def baseline_zadoff_chu(
    cfg: GSMConfig, blocks: int, block_length: int, roots: tuple[int, ...] | None = None
) -> TrainingMatrix:
    """Distinct constant-amplitude sequences in the standard sparse layout."""
    blocks, block_length = _at_least(1, blocks=blocks, block_length=block_length)
    needed = cfg.active_antennas * blocks
    if roots is None:
        roots = default_zc_roots(block_length, needed)
    if len(roots) != needed:
        raise ValueError(f"need {needed} roots, got {len(roots)}")
    phases = np.reshape([zadoff_chu(block_length, r).array() for r in roots], (-1, blocks, block_length))
    return build_training_matrix(Family.from_array(2 * block_length, phases), cfg, source="zadoff-chu")
