"""One set-up sample in a fresh interpreter: import qfilt.cli, then the
workload's warm-up, timed against reference slices in this process.

    python3 qbench/setup_probe.py WORKLOAD SEED WORKDIR

Prints one JSON line with the calibrated and raw seconds.  run.py starts
it several times and reports the median as setup_s.
"""

import json
import sys
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent


def main() -> None:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    sys.path.insert(0, str(HERE.parent / "src"))
    with calib.Calibrator() as cal:
        a = cal.now()
        import qfilt.cli  # noqa: F401 -- the import is what is timed
        b = cal.now()
        from run import WORKLOADS

        workload = WORKLOADS[name](seed, HERE.parent, workdir)
        workload.load()
        workload.warm_up()
        c = cal.now()
    print(json.dumps({"setup_s": cal.calibrated(a, c), "raw_s": c - a, "import_raw_s": b - a,
                      "ref_rates": cal.rates}))


if __name__ == "__main__":
    main()
