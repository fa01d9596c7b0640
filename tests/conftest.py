"""Hypothesis profiles for the suite.

``tier1``, loaded by default, derandomizes every ``@given`` test and keeps
no example database, so a run's verdict is a function of the commit alone:
two runs of one commit draw the same examples, on any machine.  A failure
prints its reproduction blob.

``explore`` is a fresh random search on every run, chosen with
``pytest --hypothesis-profile=explore``.  A counterexample it finds is
pinned in the test as an ``@example``, so that ``tier1`` replays it.

Neither profile sets ``max_examples``: a test's own ``@settings`` keeps its
count and takes the profile's other fields.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None, print_blob=True)
settings.register_profile("explore", print_blob=True)
settings.load_profile("tier1")
