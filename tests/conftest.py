"""Shared test settings: hypothesis draws the same examples on every run.

With ``derandomize=True`` each ``@given`` test seeds its search from the test
itself, so two runs of one tree test the same inputs and a failure seen once is
seen again. Per-test ``@settings`` still set the example counts and deadlines.
"""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True)
settings.load_profile("repeatable")
