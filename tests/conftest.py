"""Shared pytest configuration.

Property tests run under a derandomized hypothesis profile with no
deadline, so a run draws the same examples every time and a slow, shared
machine cannot fail an example on wall-clock time.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("deterministic", derandomize=True, deadline=None)
    settings.load_profile("deterministic")
