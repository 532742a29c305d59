"""Deterministic hypothesis runs that leave no state in the working tree.

The profile draws the same examples on every run and keeps no example
database.  Hypothesis still caches the constants it collects from local
source files under its home directory, so that directory is a temporary one,
removed when the session ends.
"""

import shutil
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

_HOME = tempfile.mkdtemp(prefix="memlqr-hypothesis-")
set_hypothesis_home_dir(_HOME)


def pytest_sessionfinish(session, exitstatus):
    shutil.rmtree(_HOME, ignore_errors=True)
