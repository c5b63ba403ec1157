"""Time one set-up of a workload in a fresh interpreter.

Set-up is everything a run does before its first timed unit: importing
the package, parsing the workload's config(s) and building its inputs
from the seed, and one warm-up design.  Prints the seconds taken.
Started by ``run.py``, which passes its own pinned thread environment.
"""

from time import perf_counter

_START = perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import afrelay  # noqa: F401  (the whole package, as the CLI loads it)
    import afrelay.cli  # noqa: F401
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT, args.workdir)
    wl.warm_up()
    print(f"{perf_counter() - _START:.9f}")


if __name__ == "__main__":
    main()
