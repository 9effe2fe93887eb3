"""Set-up probe: a fresh process that times how long a workload takes to
get ready, from its first statement through the imports and the warm
model builds, in reference seconds.

    python3 extbench/probe.py <workload>

Prints one JSON object: raw and net wall seconds, the kernel time c and
the reference seconds.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent


def main():
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(HERE.parent / "src"))
    import numpy  # noqa: F401  (the program's own first import)
    b0 = time.perf_counter()
    import calibrate
    import workloads
    cal = calibrate.Calibrator()
    own_setup = time.perf_counter() - b0
    cal.start_ticking()
    try:
        workloads.warm(sys.argv[1])
        ready = time.perf_counter()
    finally:
        cal.stop_ticking()
    for _ in range(5):
        cal.sample()
    net = ready - T0 - own_setup - cal.kernel_time_inside(T0, ready)
    parts = cal.part_medians(0, len(cal.starts))
    print(json.dumps({"raw_s": ready - T0, "net_s": net, "parts": parts,
                      "ref_s": calibrate.to_reference(net, parts, calibrate.INTERPRETER_SHARES)}))


if __name__ == "__main__":
    main()
