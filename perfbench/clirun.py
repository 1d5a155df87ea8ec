"""One ``dyafact`` command-line process, with calibration runs at its
start and at its end so that its time is scaled by the speed of the CPU it
ran on (the waiting parent's speed says little about it).

  python3 perfbench/clirun.py [--trace] eval --function psi --x-start 1 ...

Runs ``dyafact.cli.main`` on the arguments, as ``python -m dyafact.cli``
does. Appends to stderr, after RESULT_MARKER, a JSON object with the two
calibration times, the time they took, the import time of
``dyafact.cli`` and, with ``--trace``, the spans around the program's names.
"""

from __future__ import annotations

import json
import sys
import time

import calib

RESULT_MARKER = "\n#perfbench-clirun "
# Calibrations at each end; the worker takes the median of all of them.
CALIBRATIONS = 3


def main(argv: list) -> int:
    traced = argv[:1] == ["--trace"]
    argv = argv[1:] if traced else argv
    t = time.perf_counter()
    cals = [calib.calibration_s() for _ in range(CALIBRATIONS)]
    spent = time.perf_counter() - t
    t = time.perf_counter()
    import dyafact.cli
    import_s = time.perf_counter() - t
    tracer = None
    if traced:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    try:
        rc = dyafact.cli.main(argv)
    finally:
        if tracer is not None:
            tracer.uninstall()
        sys.stdout.flush()
        t = time.perf_counter()
        cals += [calib.calibration_s() for _ in range(CALIBRATIONS)]
        spent += time.perf_counter() - t
        sys.stderr.write(RESULT_MARKER + json.dumps({
            "calibration_s": cals, "calibration_spent_s": spent, "import_s": import_s,
            "spans": tracer.export() if tracer is not None else None}))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
