"""One Hypothesis profile for every property test: the same examples on
every run (derandomize) and no per-example deadline, since a few examples
train a model. Tests set only their own example budgets.

Every test gets its own XDG_CACHE_HOME, so the vector-table cache starts
empty in each test and nothing is written under the user's home."""
import pytest
from hypothesis import settings

settings.register_profile("slanglex", derandomize=True, deadline=None)
settings.load_profile("slanglex")


@pytest.fixture(autouse=True)
def cache_home(tmp_path_factory, monkeypatch):
    """The per-test cache base directory, set as XDG_CACHE_HOME."""
    home = tmp_path_factory.mktemp("xdg-cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    return home
