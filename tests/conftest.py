"""Hypothesis runs the same examples on every run: property tests in the
tier-1 suite are reproducible, and no example database is written.  BLAS
runs on one thread, which is faster on the small matrices the tests solve;
this must run before numpy is imported."""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from hypothesis import settings  # noqa: E402

settings.register_profile("reproducible", derandomize=True, deadline=None)
settings.load_profile("reproducible")
