"""Time-to-solution benchmark of lqcdlab: workloads, spans and per-layer metrics.

Importing the package itself loads no numpy, so the entry point can read
:data:`THREAD_POOL_VARS` and pin the pools before numpy starts them.
"""

THREAD_POOL_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
