"""Every setting has one default, its `cli.OPTIONS` entry: a library entry
point that takes a CLI setting declares no default for it, so each caller
passes the value it means."""
import dataclasses
import inspect

import pytest

from slanglex.cli import OPTIONS
from slanglex.corpus import filter_by_votes
from slanglex.embeddings import TrainingConfig
from slanglex.morphology import affix_distribution, train_segmenter
from slanglex.phonology import odds_ratio_ranking
from slanglex.slangclass.logreg import train_logreg
from slanglex.slangclass.openset import cross_class_validate
from slanglex.slangclass.patterns import blend_suffix_stats
from slanglex.social import (
    direct_bias,
    knn_from_embedding,
    name_prejudice_comparison,
    permutation_test_means,
)

# entry point -> {parameter: the OPTIONS key that holds its default}
SETTINGS = [
    (filter_by_votes, {"min_votes": "min_votes"}),
    (odds_ratio_ranking, {"smoothing": "smoothing"}),
    (train_segmenter, {"max_iters": "max_iters", "seed": "seed"}),
    (affix_distribution, {"k": "affix_k"}),
    (blend_suffix_stats, {"k": "suffix_k"}),
    (train_logreg, {"l2": "l2", "max_epochs": "max_epochs", "tol": "tol"}),
    (cross_class_validate, {"test_fraction": "test_fraction"}),
    (knn_from_embedding, {"k": "k"}),
    (direct_bias, {"c": "strictness"}),
    (permutation_test_means, {"n_permutations": "n_perms", "seed": "seed"}),
    (name_prejudice_comparison, {"n_permutations": "n_perms", "seed": "seed"}),
    (TrainingConfig, {f.name: f.name
                      for f in dataclasses.fields(TrainingConfig)}),
]


@pytest.mark.parametrize("entry, settings", SETTINGS,
                         ids=[entry.__name__ for entry, _ in SETTINGS])
def test_library_takes_each_setting_from_its_caller(entry, settings):
    parameters = inspect.signature(entry).parameters
    for name, key in settings.items():
        assert "default" in OPTIONS[key][1], key
        assert parameters[name].default is inspect.Parameter.empty, (
            f"{entry.__name__}({name}=...) repeats the default of "
            f"{OPTIONS[key][0][0]}")
