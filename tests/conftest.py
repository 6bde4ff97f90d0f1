"""Hypothesis runs the same examples on every run: property tests in the
tier-1 suite are reproducible, and no example database is written."""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, deadline=None)
settings.load_profile("reproducible")
