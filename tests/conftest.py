"""Shared test settings.

``HYPOTHESIS_PROFILE=ci`` selects a derandomized profile without a
deadline, so the property tests draw the same examples on every run and
a slow runner cannot fail them on time.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
