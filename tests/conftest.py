"""Pin BLAS and OpenMP to one thread before anything imports numpy.

The suite's matmuls are small (at most 2500 x 60); on few-core machines a
thread pool's hand-off costs more than it saves and slows the timed
acceptance criteria.  Values already set in the environment win.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
