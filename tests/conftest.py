"""Settings shared by every test file."""
from hypothesis import settings

# every run draws the same examples: a seed fixed per test, no example database
settings.register_profile("lmoll", derandomize=True, database=None)
settings.load_profile("lmoll")
