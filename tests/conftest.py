"""Hypothesis profiles for the test suite.

`tier1`, loaded here, derandomizes every property test, so each run checks
the same examples and a pass or a failure repeats.  `random` draws fresh
examples on each run, to look for new counterexamples:

    pytest --hypothesis-profile=random
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.register_profile("random", derandomize=False)
settings.load_profile("tier1")
