"""Shared test settings.

Property-based tests run under one derandomized profile with a bounded
example count and no example database, so every run of the suite draws the
same examples.  Hypothesis keeps its other caches in a temporary home that
is removed at exit, so the suite writes nothing into the checkout.
"""

import atexit
import shutil
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

_home = tempfile.mkdtemp(prefix="fairlab-hypothesis-")
atexit.register(shutil.rmtree, _home, ignore_errors=True)
set_hypothesis_home_dir(_home)

settings.register_profile("tier1", derandomize=True, max_examples=200,
                          deadline=None, database=None)
settings.load_profile("tier1")
