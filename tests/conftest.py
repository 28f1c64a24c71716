"""Suite-wide test settings.

Hypothesis draws the same examples on every run and keeps no database of
past failures, so a failing property reproduces exactly as it failed.
"""

from hypothesis import settings

settings.register_profile("statekit", derandomize=True, database=None, deadline=None)
settings.load_profile("statekit")
