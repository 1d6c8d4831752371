"""Machine-speed probe: a fixed numpy eigh + matmul loop, no nmrqip code.

Prints one JSON line with the loop's wall time and the library versions.
run.py runs it in a child with the same pinned thread variables as the jobs,
before and after each workload run.  The probe is recorded, never used to
scale a metric.
"""

import json
import platform
import time

import numpy as np
import scipy

rng = np.random.default_rng(12345)
a = rng.standard_normal((64, 64))
h = a + a.T
t0 = time.perf_counter()
for _ in range(400):
    w, v = np.linalg.eigh(h)
    h2 = v @ np.diag(w) @ v.T
probe_s = time.perf_counter() - t0

blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
print(json.dumps({
    "probe_s": probe_s,
    "python": platform.python_version(),
    "numpy": np.__version__,
    "scipy": scipy.__version__,
    "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
}))
