"""Resident-memory growth of one ``spectral`` call, measured in a fresh process.

    python3 perfbench/peak.py <features.npy> <k> <seed>

Prints the growth in MiB: the process's peak resident size after the
call minus its resident size just before it. ``tracemalloc`` cannot
be used for this layer: it slows the Python-level eigensolver about
fourteen-fold. Both sizes come from ``/proc/self/status`` because
``ru_maxrss`` carries the parent's resident size across ``exec``.
"""

import sys
from pathlib import Path

import numpy as np


def status_kib(field: str) -> int:
    """One ``kB`` field of /proc/self/status, such as VmRSS or VmHWM."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


def main() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from tsaseg import spectral

    features, k, seed = np.load(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
    before = status_kib("VmRSS")
    spectral(features, k, np.random.default_rng(seed))
    print((status_kib("VmHWM") - before) / 1024.0)


if __name__ == "__main__":
    main()
