"""One hypothesis profile for the whole suite: every property draws the same
examples on every run and writes no example database, so a run is
repeatable. A property's own @settings sets only max_examples."""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, database=None, deadline=None)
settings.load_profile("repeatable")
