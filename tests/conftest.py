# Presence of this file puts tests/ on sys.path so tests can import util.
from hypothesis import settings

# Every property test draws the same examples on every run: seeded from each test's own source.
settings.register_profile("reproducible", derandomize=True)
settings.load_profile("reproducible")
