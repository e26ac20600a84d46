import os

# One BLAS thread unless the environment says otherwise: the suite's stated
# times and criterion 14's wall-clock budget are measured so. pytest loads
# this file before any test module imports numpy, which reads these once.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
