"""Settings shared by the test suite.

Every hypothesis property test runs under one profile: 20 examples, no
deadline, no example database, and derandomized, so each run draws the same
examples and a failure reproduces on the next run.
"""

from hypothesis import settings

settings.register_profile(
    "suite", max_examples=20, deadline=None, database=None, derandomize=True
)
settings.load_profile("suite")
