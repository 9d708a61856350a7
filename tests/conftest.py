"""Settings shared by the whole test suite.

The property tests run under one hypothesis profile: examples are drawn
from a fixed seed and no example database is kept, so whether tier-1
passes depends on the code alone, not on the run or on failures an
earlier run saved in ``.hypothesis/``.  Each test keeps its own
``max_examples``.  To search with fresh random examples, pass
``--hypothesis-profile=default``.
"""

from hypothesis import settings

settings.register_profile("repro", derandomize=True, database=None)
settings.load_profile("repro")
