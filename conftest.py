# Tier-1 runs with BLAS on one thread, as tools/digest_outputs.py and the
# benchmark do: reports are bit-identical only at a fixed thread count
# (README, "Command line").  Set before anything imports numpy; a count
# already in the environment is kept.
import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
