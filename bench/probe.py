"""Capability probe: 4-setting weak-signal certification at the default cap.

Prints one JSON line with the outcome.  The angles (0, pi/3, 2pi/3, pi)
give an exact table whose full problem has 4**16 transfer functions, so
the probe shows whether the library can reach the 4-setting scenario
without enumerating them.  The enumeration cap is never raised here.
"""

import json
import math
import time

import causal_transfer as ct


def main() -> None:
    angles = (0.0, math.pi / 3, 2 * math.pi / 3, math.pi)
    t0 = time.perf_counter()
    try:
        report = ct.certify_weak_signal(ct.singlet_table(angles), ct.bell_partition())
        outcome = {
            "outcome": "weak_signal" if report.weak_signal else "local",
            "verified": report.feasibility.verify(),
        }
    except ct.CapExceededError as ex:
        outcome = {"outcome": "CapExceededError", "message": str(ex)}
    outcome["seconds"] = time.perf_counter() - t0
    print(json.dumps(outcome))


if __name__ == "__main__":
    main()
