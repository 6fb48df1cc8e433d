"""One hypothesis profile for the whole suite: derandomized, no example
database on disk, and a bounded example count so Tier-1 stays fast."""
from hypothesis import settings

settings.register_profile("fusim", derandomize=True, database=None, max_examples=40,
                          deadline=None)
settings.load_profile("fusim")
