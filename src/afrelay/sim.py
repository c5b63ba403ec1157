"""Monte-Carlo experiment harness for the transceiver comparison.

Sweeps the channel-estimation SNR, and for every channel draw designs up
to three transceivers -- the robust joint design, the robust design
without source precoding (scaled-identity precoder), and the naive
design that trusts the channel estimate -- then pushes QPSK symbols
through the true channels and records analytic and empirical weighted
MSE plus BER.

The run's draws, in (point, draw) order, are cut once into consecutive
design stacks of near-equal size, which may span sweep points: as few
as keep each within ``CHUNK_DRAWS`` draws, but at least one per worker.
A stack samples every draw from its own RNG streams, keyed by (seed,
sweep point, draw index, stream) exactly as a draw-by-draw loop would
key them (stream 0: channels, stream 1: QPSK bits and noise), joins the
draws' knowledge (each draw keeps its point's error statistics) and
designs each algorithm once on the whole stack
(:func:`afrelay.design.design_batch`); the two robust designs share one
spectral decomposition of the sampled knowledge.
It then transmits in link chunks of at most ``CHUNK_DRAWS`` draws of one
sweep point, fewer for long symbol blocks so that every (draws, antennas,
symbols) block of a chunk stays within ``CHUNK_ELEMS`` entries.  Each
draw's QPSK symbols and both noise blocks sit in one (n + m_r + m_d, N)
block z, whose Gram z z^H is formed once per chunk and shared by every
algorithm.  An algorithm's transceiver and the draw's true channels
compose, on the small matrices, into K = [G H_rd F H_sr P, G H_rd F, G],
so the received estimates are one batched product K z and the empirical
weighted MSE is Re tr(W K_e z z^H K_e^H) / N with K_e = K - [I 0 0].
Draw i of a stack gets the same numbers as draw i designed alone, so the
chunks and stacks, like a worker pool, change nothing: identical spec +
seed reproduces identical results byte for byte.  No design stack
raises: a draw whose design fails (a singular solve too) fails alone, is
excluded from the averages and is counted in ``n_failed`` and, by cause,
in ``ExperimentRecord.failures``; it never aborts the sweep.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from itertools import groupby, repeat
from operator import itemgetter

import numpy as np

from .channel import ChannelKnowledge, _complex_parts, exact_knowledge, sample_scenario_stack
from .design import DesignOptions, _StackDesigns, design
from .linalg import _as_psd, _ct, _rows
from .mse import SystemConfig, Transceiver, weighted_mse

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

# Draws per link chunk of a sweep point, and per design stack, at most.
CHUNK_DRAWS = 64
# Entries per (draws, antennas, symbols) block a chunk materialises (the
# symbol-and-noise block z holds three of them, each algorithm's K z one):
# 4 MB of complex128, which is 64 draws of 1000 symbols on 4 antennas.
# Longer blocks or more antennas get fewer draws per chunk, down to one.
CHUNK_ELEMS = 256_000


class ConfigError(ValueError):
    """Experiment specification failed validation; message names the field."""


def _parse(name: str, convert, value):
    """``convert(value)``, or a :class:`ConfigError` naming the field."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} has a malformed value {value!r}") from None


def _real(value) -> float:
    """``float(value)``, refusing a boolean: JSON's true and false are not
    numbers."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{value!r} is a boolean, not a number")
    return float(value)


def _floats(values) -> tuple[float, ...]:
    return tuple(_real(v) for v in values)


def _count(value) -> int:
    """``value`` as an int, refusing a boolean and what ``int()`` would
    truncate (2.7)."""
    out = int(value)
    if out != _real(value):
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
        alpha = _parse("alpha", _real, raw.get("alpha", 0.0))
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
        reals = np.vectorize(_real, otypes=[float])
        w = _parse("weights", lambda v: reals(np.asarray(v, dtype=object)), w_raw)
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
        if len(set(algorithms)) != len(algorithms):
            raise ConfigError(f"algorithms has a repeated entry: {list(algorithms)}")
        p_s = _parse("p_s", _real, raw.get("p_s", 1.0))
        p_r = _parse("p_r", _real, raw.get("p_r", 1.0))
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
        """Fully resolved spec (defaults included) for provenance output:
        every field, with tuples as lists and ``weights`` as nested lists."""
        return {f.name: np.asarray(getattr(self, f.name)).tolist() for f in fields(self)}


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


def _design_algorithm(algorithm: str, designs: _StackDesigns):
    """The algorithm's designs (a DesignBatch) of a stack of draws.
    ``designs`` designs the knowledge the algorithm designs with: the
    sampled knowledge for the robust designs, which share its spectral
    decomposition, and error-free knowledge of the estimates for the
    naive one."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    return designs(DesignOptions(mode="relay_only") if algorithm == "robust_nopre" else None)


def _designs(algorithm: str, designs: _StackDesigns, sampled):
    """The algorithm's designs of a stack of draws under ``designs.know``:
    the stacked transceivers, each draw's analytic weighted MSE and each
    draw's DesignError or None.

    The robust designs' analytic weighted MSE is the direct evaluation
    their agreement check already made under the same knowledge; the
    naive design is evaluated under ``sampled``, the true error
    statistics.  A draw that fails keeps its placeholder transceiver.
    """
    batch = _design_algorithm(algorithm, designs)
    tx = batch.solution.tx
    analytic = batch.direct_wmse if algorithm != "naive" else weighted_mse(designs.cfg, sampled, tx)
    return tx, analytic, list(batch.failures)


def _link(spec: ExperimentSpec, cfg: SystemConfig, point: int, draws, truth) -> list:
    """The stacked (h_sr, h_rd, z, gram, sent) of the draws.

    ``z`` is each draw's (n + m_r + m_d, N) block: its Gray-coded
    unit-energy QPSK symbols (independent sign bits on I and Q), the
    relay noise and the destination noise, drawn from stream 1 in that
    order; ``gram`` is each draw's z z^H and ``sent`` the (n, 2N) signs
    of its symbols' interleaved real and imaginary parts (True where
    negative), both shared by every algorithm.
    """
    n, n_sym = cfg.n_streams, spec.n_symbols
    z = np.empty((len(draws), n + cfg.m_r + cfg.m_d, n_sym), dtype=np.complex128)
    noises = ((slice(n, n + cfg.m_r), cfg.sigma1_sq), (slice(n + cfg.m_r, None), cfg.sigma2_sq))
    for i, draw in enumerate(draws):
        rng = _draw_rng(spec.seed, point, draw, 1)
        signs = 1 - 2 * rng.integers(0, 2, size=(2, n, n_sym))
        _complex_parts(signs, 1 / np.sqrt(2.0), z[i, :n])
        for rows, var in noises:
            block = z[i, rows]
            _complex_parts(rng.standard_normal((2, *block.shape)), np.sqrt(var / 2.0), block)
    # Draw by draw, without a conjugate copy of the whole block: freed
    # with it, a chunk's blocks were returned to the system at the end of
    # each design stack and faulted back in by the next chunk.
    gram = np.stack([d @ _ct(d) for d in z])
    return [truth.h_sr, truth.h_rd, z, gram, z[:, :n].view(np.float64) < 0]


def _transmit(tx, link, weight):
    """Per-draw empirical weighted MSE and BER of each draw's QPSK block
    pushed through its true channels.  ``link`` holds the stacked
    (h_sr, h_rd, z, gram, sent) of the draws.

    The received estimate is s_hat = K z with K = [G H_rd F H_sr P,
    G H_rd F, G], composed per draw on the small matrices, and the
    weighted MSE is Re tr(W K_e gram K_e^H) / N with K_e = K - [I 0 0]:
    the mean of e^H W e over the symbols of the error e = K_e z.  A bit
    is in error where the sign of a part of s_hat differs from the sign
    of the sent symbol, which carries the (Gray-coded) bit.
    """
    h_sr, h_rd, z, gram, sent = link
    g = tx.equalizer
    ghf = g @ h_rd @ tx.forward
    k = np.concatenate([ghf @ h_sr @ tx.precoder, ghf, g], axis=-1)
    s_hat = k @ z
    n, n_sym = s_hat.shape[-2:]
    k_err = k.copy()
    k_err[..., np.arange(n), np.arange(n)] -= 1.0
    wmse = np.einsum("ij,bji->b", weight, k_err @ gram @ _ct(k_err)).real / n_sym
    flips = np.count_nonzero((s_hat.view(np.float64) < 0) != sent, axis=(1, 2))
    return wmse, flips / (2 * n * n_sym)


def _run_job(spec: ExperimentSpec, keys) -> dict:
    """One design stack: the (point, draw) ``keys``, in run order, as
    algorithm -> per-draw outcomes, each (analytic, empirical, ber) or
    the failure cause.

    Each point's draws are sampled as one stack, and the knowledge of
    all of them is joined, so every algorithm designs the job once.  The
    links are then built and transmitted in link chunks of at most
    ``_chunk_draws(spec)`` draws of one point, against slices of the
    designs; a chunk's blocks are freed before the next chunk's are
    drawn.  All algorithms share the channel realization and the QPSK
    block, so comparisons are paired.
    """
    cfg = system_config(spec)
    runs = [(point, [draw for _, draw in run]) for point, run in groupby(keys, key=itemgetter(0))]
    sampled = [
        sample_scenario_stack(
            cfg,
            _linear("est_snr_db", spec.est_snr_db[point]),
            spec.alpha,
            [_draw_rng(spec.seed, point, d, 0) for d in draws],
        )
        for point, draws in runs
    ]
    know = ChannelKnowledge.concat([k for k, _ in sampled])
    robust = _StackDesigns(cfg, know)
    exact = exact_knowledge(know.est_sr, know.est_rd) if "naive" in spec.algorithms else None
    designs = {
        alg: _designs(alg, _StackDesigns(cfg, exact) if alg == "naive" else robust, know)
        for alg in spec.algorithms
    }
    outcomes = {alg: [] for alg in spec.algorithms}
    step = _chunk_draws(spec)
    row = 0
    for (point, draws), (_, truth) in zip(runs, sampled):
        for start in range(0, len(draws), step):
            local = slice(start, start + step)
            link = _link(spec, cfg, point, draws[local], _rows(truth, local))
            rows = slice(row, row + len(draws[local]))
            for alg, (tx, analytic, failures) in designs.items():
                empirical, ber = _transmit(_rows(tx, rows), link, cfg.weight)
                outcomes[alg] += [
                    fail.cause if fail is not None else (float(a), float(e), float(b))
                    for fail, a, e, b in zip(failures[rows], analytic[rows], empirical, ber)
                ]
            del link
            row = rows.stop
    return outcomes


def _chunk_draws(spec: ExperimentSpec) -> int:
    """Draws per link chunk: CHUNK_DRAWS, fewer where a draw's symbol
    blocks would push a chunk's blocks past CHUNK_ELEMS entries."""
    return min(CHUNK_DRAWS, max(1, CHUNK_ELEMS // (spec.n_symbols * max(spec.dims))))


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

    The run's D (point, draw) keys, in run order, are cut once into
    consecutive design stacks of near-equal size: as few as keep each
    within CHUNK_DRAWS draws, but one per worker (at most D), all served
    by one process pool when there are several workers and stacks.
    """
    n = spec.n_channel_draws
    points = range(len(spec.est_snr_db))
    keys = [(point, draw) for point in points for draw in range(n)]
    workers = min(spec.workers, os.cpu_count() or 1)
    count = min(len(keys), max(-(-len(keys) // CHUNK_DRAWS), workers))
    stacks = [keys[i * len(keys) // count : (i + 1) * len(keys) // count] for i in range(count)]
    if min(workers, count) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, count)) as pool:
            done = list(pool.map(_run_job, repeat(spec), stacks))
    else:
        done = [_run_job(spec, stack) for stack in stacks]
    outcomes = {alg: [out for job in done for out in job[alg]] for alg in spec.algorithms}
    return [
        _record(spec, point, alg, outcomes[alg][point * n : (point + 1) * n])
        for point in points
        for alg in spec.algorithms
    ]


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
    """Small oracle-agreement suite; returns (name, passed, detail) rows.

    Three oracles no design checks itself: Monte-Carlo agreement, the
    residual form against the direct one, and equalizer optimality.  Then
    the self-test sweep runs twice.  Every one of its designs checks its
    own contracts (converged water-filling, both power budgets, the eta_p
    fixed point, residual-vs-direct agreement), so the sweep must count
    no failed draw and give equal, finite records.
    """
    from . import validate
    from .channel import sample_scenario as _scenario

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

    records, again = run_experiment(spec), run_experiment(spec)
    causes = dict(sorted(sum((Counter(r.failures) for r in records), Counter()).items()))
    failed = sum(r.n_failed for r in records)
    results.append(
        (
            "every design of the self-test sweep meets its contracts",
            failed == 0,
            f"{failed} of {failed + sum(r.n_draws for r in records)} designs failed, "
            f"by cause {causes}",
        )
    )
    finite = all(np.isfinite([r.wmse_analytic, r.wmse_empirical, r.ber]).all() for r in records)
    results.append(
        (
            "experiment harness gives equal, finite records on a rerun",
            records == again and finite,
            f"{len(records)} records",
        )
    )
    return results
