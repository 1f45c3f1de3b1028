"""A fixed reference kernel that measures the host's current speed.

The kernel does a little of each kind of work hierspect's operations do:
JSON parsing and a dict-counting loop (``load_levels``, the k-means
bookkeeping), a dense symmetric eigensolve (the dense eigensolver path),
sparse matrix-vector products (ARPACK) and vectorised distance sums
(k-means).  It uses only numpy, scipy and the standard library, so no
change to hierspect can change its time; a slower reading means the host
is slower at that moment.

``REFERENCE_S`` is the kernel's median time on the reference host (2-core
Xeon at 2.1 GHz, one BLAS thread, quiet).  Scaling a wall time by
``REFERENCE_S / measured`` gives seconds at the reference host's speed.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np
import scipy.sparse

REFERENCE_S = 0.035
REPS = 3


class Kernel:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.text = json.dumps({"membership": rng.integers(0, 27, 20000).tolist()})
        dense = rng.standard_normal((240, 240))
        self.dense = dense + dense.T
        rows, cols = rng.integers(0, 20000, (2, 150000))
        sparse = scipy.sparse.coo_matrix((np.ones(150000), (rows, cols)), shape=(20000, 20000))
        self.sparse = (sparse + sparse.T).tocsr()
        self.vector = np.ones(20000)
        self.points = rng.standard_normal((2000, 8))
        self.centres = self.points[:16].copy()
        self.once()

    def once(self) -> float:
        start = time.perf_counter()
        for _ in range(3):
            counts: dict = {}
            for label in json.loads(self.text)["membership"]:
                counts[label] = counts.get(label, 0) + 1
        np.linalg.eigh(self.dense)
        for _ in range(12):
            self.sparse @ self.vector
        for _ in range(6):
            ((self.points[:, None, :] - self.centres[None, :, :]) ** 2).sum(-1).argmin(1)
        return time.perf_counter() - start

    def measure(self) -> float:
        """Median of ``REPS`` timings of the kernel, in seconds."""
        return statistics.median(self.once() for _ in range(REPS))
