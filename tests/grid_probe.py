"""A fixed, seeded grid over the corners of the accepted parameter space.

Streams below and equal to the relay antennas, alpha up to 1 - 1e-15,
data SNR up to 250 dB and estimation SNR from -300 to 100 dB: 24 runs of
``run_experiment``, 3,456 designs.  The grid is plain loops over
constants, so its examples never move when a test that runs it changes.
Failed draws are counted by (streams, alpha, data SNR, estimation SNR,
algorithm, cause).

Print the counts with ``PYTHONPATH=src python tests/grid_probe.py``.
"""

from collections import Counter

from afrelay.sim import ExperimentSpec, run_experiment

SHAPES = (([4, 3, 5, 4], [0.6, 0.4]), ([4, 4, 4, 4], [0.3, 0.3, 0.2, 0.2]))
ALPHAS = (0.5, 1 - 1e-6, 1 - 1e-15)
DATA_SNR_DB = (30.0, 70.0, 150.0, 250.0)
EST_SNR_DB = (-300.0, -100.0, -20.0, 20.0, 60.0, 100.0)


def grid_specs():
    """The grid's specs: one per (shape, alpha, data SNR), 8 draws of 8
    symbols at each estimation SNR, seed 3."""
    for dims, weights in SHAPES:
        for alpha in ALPHAS:
            for snr in DATA_SNR_DB:
                yield ExperimentSpec.from_dict({
                    "dims": dims, "n_streams": len(weights), "weights": weights,
                    "alpha": alpha, "data_snr_db": snr, "est_snr_db": list(EST_SNR_DB),
                    "n_channel_draws": 8, "n_symbols": 8, "seed": 3,
                })


def probe():
    """(spec, records) of every run of the grid."""
    for spec in grid_specs():
        yield spec, run_experiment(spec)


def failure_counts(runs) -> Counter:
    """Failed draws of ``runs`` ((spec, records) pairs) by (streams, alpha,
    data SNR, estimation SNR, algorithm, cause)."""
    counts = Counter()
    for spec, records in runs:
        for rec in records:
            cell = (spec.n_streams, spec.alpha, spec.data_snr_db[0], rec.est_snr_db, rec.algorithm)
            counts.update({(*cell, cause): k for cause, k in rec.failures.items()})
    return counts


if __name__ == "__main__":
    counts = failure_counts(probe())
    for key, k in sorted(counts.items()):
        print(*key, k)
    by_cause = Counter()
    for (*_, alg, cause), k in counts.items():
        by_cause[alg, cause] += k
    print(f"{sum(counts.values())} failed designs; by (algorithm, cause): {dict(sorted(by_cause.items()))}")
