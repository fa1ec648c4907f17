"""Shared test settings.

Property-based tests run under one derandomized profile with a bounded
example count and no example database, so every run of the suite draws the
same examples and writes nothing.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, max_examples=200,
                          deadline=None, database=None)
settings.load_profile("tier1")
