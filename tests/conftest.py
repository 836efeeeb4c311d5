"""Shared test configuration.

Property tests run under a derandomized hypothesis profile: every run
tries the same examples, so the suite passes or fails the same way each
time, and no example database is written.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
