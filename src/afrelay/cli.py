"""Command-line entry point for the experiment harness."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .sim import ConfigError, ExperimentSpec, emit_csv, run_experiment, run_selftest


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afrelay-sim",
        description=(
            "Run dual-hop AF MIMO relay transceiver experiments: sweep the "
            "estimation SNR, design the transceivers per algorithm, simulate "
            "QPSK transmission and emit CSV results."
        ),
    )
    parser.add_argument("--config", help="path to the JSON experiment spec")
    parser.add_argument("--out", help="path of the CSV output file")
    parser.add_argument(
        "--seed", type=int, default=None, help="override the config seed"
    )
    parser.add_argument(
        "--mode",
        choices=("sweep", "single", "selftest"),
        default="sweep",
        help=(
            "sweep: run the full est_snr_db sweep; single: run only the first "
            "sweep point; selftest: run the built-in oracle-agreement suite"
        ),
    )
    return parser


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on bad flags / --help
        code = exc.code
        return int(code) if code is not None else 0

    if args.mode == "selftest":
        failures = 0
        for name, ok, detail in run_selftest():
            print(f"{'PASS' if ok else 'FAIL'}: {name} ({detail})")
            failures += 0 if ok else 1
        print(f"selftest: {failures} failure(s)")
        return 0 if failures == 0 else 1

    if not args.config:
        print("error: --config is required for sweep/single runs", file=sys.stderr)
        return 2
    if not args.out:
        print("error: --out is required for sweep/single runs", file=sys.stderr)
        return 2
    try:
        spec = ExperimentSpec.from_json(args.config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"config error: cannot read {args.config}: {err}", file=sys.stderr)
        return 2
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    if args.mode == "single":
        spec = replace(spec, est_snr_db=spec.est_snr_db[:1])

    try:
        records = run_experiment(spec)
    except Exception as err:  # a fault of the harness: design failures are counted
        print(f"experiment failed: {err}", file=sys.stderr)
        return 1
    try:
        emit_csv(records, args.out, metadata=spec.to_dict())
    except OSError as err:
        print(str(err), file=sys.stderr)
        return 1
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
