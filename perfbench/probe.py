"""Speed probe: sample how fast the CPU the operations run on is going.

usage: python3 probe.py SAMPLES PERIOD_S ROUNDS

Runs on the one CPU the benchmark pins itself and its operations to (it
inherits that affinity).  Every PERIOD_S seconds it times ROUNDS rounds of a
fixed numpy kernel shaped like the solver's inner loop (a 64 x 64 complex
eigh, a PSD reconstruction and three trace-and-replace steps) and appends
one line "START CPU_S" to SAMPLES: the CLOCK_MONOTONIC reading when the
kernel started and the thread CPU time it took.  It runs until it is
terminated.

On a shared virtual machine a CPU's speed drifts by tens of percent over
seconds, and two CPUs drift independently.  The kernel's CPU time on the
same CPU tracks the speed an operation sees while it runs (their one-second
medians correlated at 0.95), so run.py divides each operation's wall time by
the median sample taken during it.  The kernel does not touch timeflip, so
no change to the package moves it.
"""

import sys
import time

import numpy as np


def main() -> int:
    path, period, rounds = sys.argv[1], float(sys.argv[2]), int(sys.argv[3])
    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    h = (a + a.conj().T) / 16
    eye = np.eye(4) / 4
    with open(path, "w", buffering=1, encoding="utf-8") as out:
        while True:
            started = time.clock_gettime(time.CLOCK_MONOTONIC)
            cpu = time.thread_time()
            for _ in range(rounds):
                vals, vecs = np.linalg.eigh(h)
                m = (vecs * np.maximum(vals, 0.0)) @ vecs.conj().T
                for p, q in ((1, 16), (4, 4), (16, 1)):
                    tr = np.trace(m.reshape(p, 4, q, p, 4, q), axis1=1, axis2=4)
                    m = m - np.einsum("abcd,ij->aibcjd", tr, eye).reshape(64, 64)
            out.write(f"{started:.6f} {time.thread_time() - cpu:.9f}\n")
            time.sleep(period)


if __name__ == "__main__":
    sys.exit(main())
