from hypothesis import settings

# Deterministic property tests: a fixed example sequence, no example database
# written into the checkout, and no per-example deadline on a slow machine.
settings.register_profile("fiberquant", derandomize=True, database=None, deadline=None)
settings.load_profile("fiberquant")
