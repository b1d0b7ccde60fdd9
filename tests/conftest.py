"""One Hypothesis profile for every property test: the same examples on
every run (derandomize) and no per-example deadline, since a few examples
train a model. Tests set only their own example budgets."""
from hypothesis import settings

settings.register_profile("slanglex", derandomize=True, deadline=None)
settings.load_profile("slanglex")
