"""Test-suite configuration.

Property tests run a fixed, derandomized set of examples with no example
database and no deadline, so every run of the suite checks the same inputs
and a slow machine cannot turn a correct example into a failure.
"""

from hypothesis import settings

settings.register_profile("cavqed", derandomize=True, max_examples=100,
                          database=None, deadline=None)
settings.load_profile("cavqed")
