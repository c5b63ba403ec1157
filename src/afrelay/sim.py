"""Monte-Carlo experiment harness for the transceiver comparison.

Sweeps the channel-estimation SNR, and for every channel draw designs up
to three transceivers -- the robust joint design, the robust design
without source precoding (scaled-identity precoder), and the naive
design that trusts the channel estimate -- then pushes QPSK symbols
through the true channels and records analytic and empirical weighted
MSE plus BER.

Each sweep point is processed in chunks of at most ``CHUNK_DRAWS``
draws, fewer for long symbol blocks so that every (draws, antennas,
symbols) block of a chunk stays within ``CHUNK_ELEMS`` entries.  A chunk
samples every draw from its own RNG streams, keyed by
(seed, sweep point, draw index, stream) exactly as a draw-by-draw loop
would key them (stream 0: channels, stream 1: QPSK bits and noise),
stacks the draws, designs each algorithm on the whole stack
(:func:`afrelay.design.design_batch`) and transmits all draws with one
batched matmul chain.  Draw i of a stack gets the same numbers as draw i
designed alone, so the chunking, like a worker pool, changes nothing:
identical spec + seed reproduces identical results byte for byte.  A
draw whose design fails is excluded from the averages and counted in
``n_failed`` and, by cause, in ``ExperimentRecord.failures``; it never
aborts the sweep.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .channel import exact_knowledge, sample_scenario_stack
from .design import DesignError, DesignOptions, design, design_batch
from .linalg import _as_psd
from .mse import SystemConfig, weighted_mse

__all__ = [
    "ConfigError",
    "ExperimentSpec",
    "ExperimentRecord",
    "system_config",
    "run_experiment",
    "emit_csv",
    "run_selftest",
]

ALGORITHMS = ("naive", "robust_full", "robust_nopre")

CSV_HEADER = "est_snr_db,algorithm,wmse_analytic,wmse_empirical,ber,n_draws,n_failed,seed"

# Draws per batched chunk of a sweep point, at most.
CHUNK_DRAWS = 64
# Entries per (draws, antennas, symbols) block a chunk materialises (the
# QPSK symbols, both noises and every stage of the transmit): 4 MB of
# complex128, which is 64 draws of 1000 symbols on 4 antennas.  Longer
# blocks or more antennas get fewer draws per chunk, down to one.
CHUNK_ELEMS = 256_000


class ConfigError(ValueError):
    """Experiment specification failed validation; message names the field."""


def _parse(name: str, convert, value):
    """``convert(value)``, or a :class:`ConfigError` naming the field."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} has a malformed value {value!r}") from None


def _floats(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


def _count(value) -> int:
    """``value`` as an int, refusing what ``int()`` would truncate (2.7)."""
    out = int(value)
    if out != float(value):
        raise ValueError(f"{value!r} is not integral")
    return out


def _linear(name: str, db: float) -> float:
    """10^(db/10), or a :class:`ConfigError` naming the field where that
    overflows or underflows to zero."""
    try:
        lin = 10.0 ** (db / 10.0)
    except OverflowError:
        lin = float("inf")
    if not 0.0 < lin < float("inf"):
        raise ConfigError(f"{name} entry {db!r} dB has no finite positive linear value")
    return lin


@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep: dimensions, SNRs, weighting, draw counts, algorithms.

    ``data_snr_db`` is (first hop, second hop); transmit powers default
    to 1 so the noise variances follow directly from the SNRs.
    """

    dims: tuple[int, int, int, int]
    n_streams: int
    alpha: float
    data_snr_db: tuple[float, float]
    est_snr_db: tuple[float, ...]
    weights: np.ndarray
    n_channel_draws: int = 1000
    n_symbols: int = 1000
    seed: int = 0
    algorithms: tuple[str, ...] = ALGORITHMS
    p_s: float = 1.0
    p_r: float = 1.0
    workers: int = 1

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentSpec":
        known = {f.name for f in fields(cls)}
        for key in raw:
            if key not in known:
                raise ConfigError(f"unknown config field {key!r}")
        try:
            dims = tuple(_count(d) for d in raw["dims"])
        except (KeyError, TypeError, ValueError, OverflowError):
            raise ConfigError("dims must be a list of four antenna counts") from None
        if len(dims) != 4 or any(d < 1 for d in dims):
            raise ConfigError("dims must be four positive antenna counts")
        if "n_streams" not in raw:
            raise ConfigError("n_streams is required")
        n = _parse("n_streams", _count, raw["n_streams"])
        if not 1 <= n <= min(dims):
            raise ConfigError("n_streams must be in [1, min(dims)]")
        alpha = _parse("alpha", float, raw.get("alpha", 0.0))
        if not 0.0 <= alpha < 1.0:
            raise ConfigError("alpha must be in [0, 1)")
        snr = raw.get("data_snr_db", 30.0)
        data_snr = _parse("data_snr_db", _floats, (snr, snr) if np.isscalar(snr) else snr)
        if len(data_snr) != 2 or not np.isfinite(data_snr).all():
            raise ConfigError("data_snr_db must be a finite scalar or pair")
        est = raw.get("est_snr_db")
        if not isinstance(est, (list, tuple)) or not est:
            raise ConfigError("est_snr_db must be a nonempty list")
        est_snr = _parse("est_snr_db", _floats, est)
        if not np.isfinite(est_snr).all():
            raise ConfigError("est_snr_db entries must be finite")
        w_raw = raw.get("weights")
        if w_raw is None:
            raise ConfigError("weights is required")
        w = _parse("weights", lambda v: np.asarray(v, dtype=float), w_raw)
        if w.ndim == 1:
            if w.shape[0] != n:
                raise ConfigError(f"weights must have length n_streams={n}")
            w = np.diag(w)
        elif w.shape != (n, n):
            raise ConfigError(f"weights must be length-{n} diagonal or {n}x{n}")
        try:
            _as_psd(w, "weights")
        except ValueError as err:
            raise ConfigError(str(err)) from None
        draws = _parse("n_channel_draws", _count, raw.get("n_channel_draws", 1000))
        symbols = _parse("n_symbols", _count, raw.get("n_symbols", 1000))
        if draws < 1 or symbols < 1:
            raise ConfigError("n_channel_draws and n_symbols must be >= 1")
        algorithms = _parse("algorithms", tuple, raw.get("algorithms", list(ALGORITHMS)))
        if not algorithms:
            raise ConfigError("algorithms must be nonempty")
        for alg in algorithms:
            if alg not in ALGORITHMS:
                raise ConfigError(
                    f"algorithms entry {alg!r} not in {sorted(ALGORITHMS)}"
                )
        p_s = _parse("p_s", float, raw.get("p_s", 1.0))
        p_r = _parse("p_r", float, raw.get("p_r", 1.0))
        if not all(np.isfinite(p) and p > 0 for p in (p_s, p_r)):
            raise ConfigError("p_s and p_r must be positive and finite")
        for x in est_snr:
            _linear("est_snr_db", x)
        for power, name, snr in zip((p_s, p_r), ("p_s", "p_r"), data_snr):
            if not 0.0 < power / _linear("data_snr_db", snr) < float("inf"):
                raise ConfigError(
                    f"{name} = {power!r} at data_snr_db {snr!r} gives a noise "
                    "variance that is not positive and finite"
                )
        workers = _parse("workers", _count, raw.get("workers", 1))
        if workers < 1:
            raise ConfigError("workers must be >= 1")
        return cls(
            dims=dims,
            n_streams=n,
            alpha=alpha,
            data_snr_db=data_snr,
            est_snr_db=est_snr,
            weights=w,
            n_channel_draws=draws,
            n_symbols=symbols,
            seed=_parse("seed", _count, raw.get("seed", 0)),
            algorithms=algorithms,
            p_s=p_s,
            p_r=p_r,
            workers=workers,
        )

    @classmethod
    def from_json(cls, path) -> "ExperimentSpec":
        with open(path, encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as err:
                raise ConfigError(f"config is not valid JSON: {err}") from None
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        return cls.from_dict(raw)

    def to_dict(self) -> dict:
        """Fully resolved spec (defaults included) for provenance output."""
        return {
            "dims": list(self.dims),
            "n_streams": self.n_streams,
            "alpha": self.alpha,
            "data_snr_db": list(self.data_snr_db),
            "est_snr_db": list(self.est_snr_db),
            "weights": np.asarray(self.weights).tolist(),
            "n_channel_draws": self.n_channel_draws,
            "n_symbols": self.n_symbols,
            "seed": self.seed,
            "algorithms": list(self.algorithms),
            "p_s": self.p_s,
            "p_r": self.p_r,
            "workers": self.workers,
        }


@dataclass(frozen=True)
class ExperimentRecord:
    """Averages for one (sweep point, algorithm) cell.

    ``n_draws`` counts the draws included in the averages; failed design
    attempts are excluded and counted in ``n_failed``.  ``wmse_diff_se``
    is the standard error of the mean paired difference empirical -
    analytic (not part of the CSV contract, used by self-consistency
    checks); ``failures`` counts the failed draws by
    :attr:`afrelay.design.DesignError.cause` (not part of the CSV either).
    """

    est_snr_db: float
    algorithm: str
    wmse_analytic: float
    wmse_empirical: float
    ber: float
    n_draws: int
    n_failed: int
    seed: int
    wmse_diff_se: float = field(default=float("nan"), compare=False)
    failures: dict = field(default_factory=dict, compare=False)


def system_config(spec: ExperimentSpec) -> SystemConfig:
    n_s, m_r, n_r, m_d = spec.dims
    return SystemConfig(
        n_s=n_s,
        m_r=m_r,
        n_r=n_r,
        m_d=m_d,
        n_streams=spec.n_streams,
        p_s=spec.p_s,
        p_r=spec.p_r,
        sigma1_sq=spec.p_s / _linear("data_snr_db", spec.data_snr_db[0]),
        sigma2_sq=spec.p_r / _linear("data_snr_db", spec.data_snr_db[1]),
        weight=spec.weights,
    )


def _draw_rng(seed: int, point: int, draw: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence((seed & 0xFFFFFFFFFFFFFFFF, point, draw, stream))
    )


def _design_algorithm(algorithm: str, cfg: SystemConfig, know):
    """The algorithm's designs for a stack of draws (a DesignBatch)."""
    if algorithm == "robust_full":
        return design_batch(cfg, know)
    if algorithm == "robust_nopre":
        return design_batch(cfg, know, DesignOptions(mode="relay_only"))
    if algorithm == "naive":
        return design_batch(cfg, exact_knowledge(know.est_sr, know.est_rd))
    raise ValueError(f"unknown algorithm {algorithm!r}")


def _link(spec: ExperimentSpec, cfg: SystemConfig, point: int, draws, truth) -> list:
    """The stacked (h_sr, h_rd, bits, symbols, noise1, noise2) of the draws.

    Each draw's stream 1 gives its Gray-coded unit-energy QPSK block
    (independent sign bits on I and Q), then both hops' noise.
    """
    n_sym = spec.n_symbols
    bits = np.empty((len(draws), 2, cfg.n_streams, n_sym), dtype=bool)
    noise1 = np.empty((len(draws), cfg.m_r, n_sym), dtype=np.complex128)
    noise2 = np.empty((len(draws), cfg.m_d, n_sym), dtype=np.complex128)
    for i, draw in enumerate(draws):
        rng = _draw_rng(spec.seed, point, draw, 1)
        bits[i] = rng.integers(0, 2, size=(2, cfg.n_streams, n_sym))
        for noise, var in ((noise1, cfg.sigma1_sq), (noise2, cfg.sigma2_sq)):
            shape = noise.shape[1:]
            noise[i] = np.sqrt(var / 2.0) * (
                rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            )
    symbols = ((1 - 2 * bits[:, 0]) + 1j * (1 - 2 * bits[:, 1])) / np.sqrt(2.0)
    return [truth.h_sr, truth.h_rd, bits, symbols, noise1, noise2]


def _transmit(tx, link, weight):
    """Push each draw's QPSK block through its true channels; per-draw
    weighted MSE and BER.  ``link`` holds the stacked (h_sr, h_rd, bits,
    symbols, noise1, noise2) of the draws."""
    h_sr, h_rd, bits, symbols, noise1, noise2 = link
    x = h_sr @ (tx.precoder @ symbols)
    x += noise1
    y = h_rd @ (tx.forward @ x)
    y += noise2
    s_hat = tx.equalizer @ y
    err = s_hat - symbols
    wmse = np.mean(np.real(np.einsum("bin,ij,bjn->bn", err.conj(), weight, err)), axis=-1)
    detected = np.stack([s_hat.real < 0, s_hat.imag < 0], axis=1)
    ber = np.mean(detected != bits, axis=(1, 2, 3))
    return wmse, ber


def _evaluate(algorithm: str, cfg: SystemConfig, know, link) -> list:
    """Per draw of the stack, (analytic, empirical, ber) or the failure cause.

    All algorithms share the channel realization and the QPSK block, so
    comparisons are paired.  The robust designs' analytic weighted MSE
    is the direct evaluation their agreement check already made under
    the same knowledge; the naive design is evaluated under the true
    error statistics.
    """
    try:
        batch = _design_algorithm(algorithm, cfg, know)
    except DesignError as err:
        draws = know.est_sr.shape[0]
        if draws == 1:
            return [err.cause]
        # A kernel rejected one draw's numerics for the whole stack:
        # design the draws one by one to isolate it.
        return [
            out
            for i in range(draws)
            for out in _evaluate(
                algorithm, cfg, know.select(slice(i, i + 1)), [a[i : i + 1] for a in link]
            )
        ]
    tx = batch.solution.tx
    analytic = batch.direct_wmse if algorithm != "naive" else weighted_mse(cfg, know, tx)
    empirical, ber = _transmit(tx, link, cfg.weight)
    return [
        fail.cause if fail is not None else (float(a), float(e), float(b))
        for fail, a, e, b in zip(batch.failures, analytic, empirical, ber)
    ]


def _run_chunk(spec: ExperimentSpec, point: int, start: int, stop: int) -> dict:
    """Draws start..stop-1 of one sweep point: algorithm -> per-draw outcomes."""
    cfg = system_config(spec)
    draws = range(start, stop)
    snr_est = _linear("est_snr_db", spec.est_snr_db[point])
    know, truth = sample_scenario_stack(
        cfg, snr_est, spec.alpha, [_draw_rng(spec.seed, point, d, 0) for d in draws]
    )
    link = _link(spec, cfg, point, draws, truth)
    return {alg: _evaluate(alg, cfg, know, link) for alg in spec.algorithms}


def _chunk_draws(spec: ExperimentSpec) -> int:
    """Draws per chunk: CHUNK_DRAWS, fewer where a draw's symbol blocks
    would push a chunk's blocks past CHUNK_ELEMS entries."""
    return min(CHUNK_DRAWS, max(1, CHUNK_ELEMS // (spec.n_symbols * max(spec.dims))))


def _chunk_worker(args):
    return _run_chunk(*args)


def _record(spec: ExperimentSpec, point: int, alg: str, outcomes: list) -> ExperimentRecord:
    rows = [o for o in outcomes if not isinstance(o, str)]
    failures = dict(sorted(Counter(o for o in outcomes if isinstance(o, str)).items()))
    common = dict(
        est_snr_db=spec.est_snr_db[point],
        algorithm=alg,
        n_draws=len(rows),
        n_failed=len(outcomes) - len(rows),
        seed=spec.seed,
        failures=failures,
    )
    if not rows:
        nan = float("nan")
        return ExperimentRecord(wmse_analytic=nan, wmse_empirical=nan, ber=nan, **common)
    arr = np.asarray(rows)
    diff = arr[:, 1] - arr[:, 0]
    diff_se = (
        float(np.std(diff, ddof=1) / np.sqrt(len(rows))) if len(rows) > 1 else float("nan")
    )
    return ExperimentRecord(
        wmse_analytic=float(arr[:, 0].mean()),
        wmse_empirical=float(arr[:, 1].mean()),
        ber=float(arr[:, 2].mean()),
        wmse_diff_se=diff_se,
        **common,
    )


def run_experiment(spec: ExperimentSpec) -> list[ExperimentRecord]:
    """Run the full sweep; one record per (sweep point, algorithm).

    With ``workers`` > 1 one process pool serves every chunk of every
    point; it starts no more processes than there are chunks or CPUs.
    """
    step = _chunk_draws(spec)
    starts = range(0, spec.n_channel_draws, step)
    points = range(len(spec.est_snr_db))
    jobs = [
        (spec, point, start, min(start + step, spec.n_channel_draws))
        for point in points
        for start in starts
    ]
    workers = min(spec.workers, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_chunk_worker, jobs))
    else:
        chunks = [_run_chunk(*job) for job in jobs]
    records = []
    for point in points:
        point_chunks = chunks[point * len(starts) : (point + 1) * len(starts)]
        for alg in spec.algorithms:
            outcomes = [out for chunk in point_chunks for out in chunk[alg]]
            records.append(_record(spec, point, alg, outcomes))
    return records


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def emit_csv(records, path, metadata: dict | None = None) -> None:
    """Write records as UTF-8 CSV sorted by (est_snr_db, algorithm).

    Floats carry 12 significant digits.  When ``metadata`` is given it is
    prepended as a single '#'-prefixed canonical-JSON comment line.
    """
    if not records:
        raise ValueError("records must be nonempty")
    lines = []
    if metadata is not None:
        lines.append(
            "# " + json.dumps(metadata, sort_keys=True, separators=(",", ":"))
        )
    lines.append(CSV_HEADER)
    for rec in sorted(records, key=lambda r: (r.est_snr_db, r.algorithm)):
        lines.append(
            ",".join(
                [
                    _fmt(rec.est_snr_db),
                    rec.algorithm,
                    _fmt(rec.wmse_analytic),
                    _fmt(rec.wmse_empirical),
                    _fmt(rec.ber),
                    str(rec.n_draws),
                    str(rec.n_failed),
                    str(rec.seed),
                ]
            )
        )
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as err:
        raise OSError(f"could not write CSV to {path}: {err}") from err


def _selftest_spec() -> ExperimentSpec:
    return ExperimentSpec(
        dims=(3, 3, 3, 3),
        n_streams=2,
        alpha=0.3,
        data_snr_db=(20.0, 20.0),
        est_snr_db=(10.0,),
        weights=np.diag([0.6, 0.4]),
        n_channel_draws=8,
        n_symbols=500,
        seed=7,
    )


def run_selftest() -> list[tuple[str, bool, str]]:
    """Small oracle-agreement suite; returns (name, passed, detail) rows."""
    from . import validate
    from .channel import sample_scenario as _scenario
    from .design import waterfill_kkt_residual, waterfill_relay
    from .mse import Transceiver

    results = []
    spec = _selftest_spec()
    cfg = system_config(spec)
    rng = np.random.default_rng(2024)
    know, _ = _scenario(cfg, 10.0, 0.3, rng)

    sol = design(cfg, know)
    analytic = sol.achieved_wmse
    est = validate.empirical_weighted_mse(cfg, know, sol.tx, 20000, 99)
    gap = abs(est.mean - analytic)
    results.append(
        (
            "analytic weighted MSE matches Monte-Carlo (3 std)",
            gap <= 3 * est.std_error,
            f"|{est.mean:.6g} - {analytic:.6g}| vs 3*{est.std_error:.2g}",
        )
    )

    direct = weighted_mse(cfg, know, sol.tx)
    rel = abs(analytic - direct) / max(abs(direct), 1e-300)
    results.append(
        (
            "residual form equals direct weighted MSE at the LMMSE equalizer",
            rel <= 1e-10,
            f"relative gap {rel:.3e}",
        )
    )

    worse = 0
    pert_rng = np.random.default_rng(5)
    for _ in range(20):
        delta = 1e-2 * (
            pert_rng.standard_normal(sol.tx.equalizer.shape)
            + 1j * pert_rng.standard_normal(sol.tx.equalizer.shape)
        )
        tx_pert = Transceiver(sol.tx.precoder, sol.tx.forward, sol.tx.equalizer + delta)
        if weighted_mse(cfg, know, tx_pert) < direct:
            worse += 1
    results.append(
        (
            "LMMSE equalizer beats random perturbations",
            worse == 0,
            f"{worse} of 20 perturbations improved the objective",
        )
    )

    power_p = float(np.real(np.trace(sol.tx.precoder @ sol.tx.precoder.conj().T)))
    results.append(
        (
            "designed source power sits on the budget",
            abs(power_p - cfg.p_s) <= 1e-9 * cfg.p_s,
            f"tr(P P^H) = {power_p:.12g}",
        )
    )

    f_alloc, mu_f = waterfill_relay(
        sol.alloc.p_alloc, sol.spectral.gains_sr, sol.spectral.gains_rd,
        np.diag(cfg.weight).real, cfg.p_r,
    )
    a = (sol.alloc.p_alloc * sol.spectral.gains_sr) ** 2
    coeffs = np.diag(cfg.weight).real * a / (1 + a)
    kkt = waterfill_kkt_residual(f_alloc**2, mu_f, coeffs, sol.spectral.gains_rd)
    results.append(
        ("water-filling KKT residual below 1e-8", kkt <= 1e-8, f"residual {kkt:.3e}")
    )

    sol2 = design(cfg, know)
    results.append(
        (
            "design is deterministic",
            np.array_equal(sol.tx.precoder, sol2.tx.precoder)
            and np.array_equal(sol.tx.forward, sol2.tx.forward),
            "re-ran the pipeline on identical inputs",
        )
    )

    records = run_experiment(spec)
    ok_records = all(r.n_draws > 0 and np.isfinite(r.wmse_analytic) for r in records)
    results.append(
        (
            "experiment harness produces finite records",
            ok_records,
            f"{len(records)} records",
        )
    )
    return results
