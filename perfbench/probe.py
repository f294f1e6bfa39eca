"""Fixed work that ``run.py`` times between CLI commands to track host speed.

On a shared host the speed of the CPU can drift by tens of percent over tens
of seconds, and every command slows and speeds up with it.  ``run.py`` runs this script in a fresh
process before the first timed command and after each one, and scales each
command's time by the probes on either side of it.  Like a command, the probe
starts an interpreter, imports numpy, sorts and deduplicates an array, runs a
dictionary loop and formats text lines.  It never imports ``netpatrimony``, so
no change to the program moves it.
"""

import numpy as np

rng = np.random.default_rng(0)
keys = rng.integers(0, 1 << 40, 100_000)
order = np.argsort(keys, kind="stable")
distinct = np.unique(keys[order] % 80_003)
buckets: dict[int, int] = {}
for key in distinct.tolist():
    buckets[key % 5_003] = buckets.get(key % 5_003, 0) + 1
text = "\n".join(map("{}\t{}".format, distinct.tolist(), order[: len(distinct)].tolist()))
