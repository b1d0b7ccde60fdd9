"""Four-class slang-formation classifier with open-set rejection, plus
rule-based analyzers for clipping, reduplicative, and blend patterns."""

from .features import (
    NgramKind,
    FeatureVocabulary,
    extract_char_ngrams,
    extract_morpheme_ngrams,
    feature_matrix,
    fit_vocabulary,
    vectorize,
    word_features,
)
from .logreg import (
    ClassifierModel,
    loss_and_gradient,
    train_logreg,
    predict_proba,
    predict_proba_batch,
    save_classifier,
    load_classifier,
)
from .openset import (
    ScoreType,
    argmax_label,
    confidence_score,
    predict_with_reject,
    LabelSampler,
    cross_class_validate,
    CrossClassReport,
)
from .patterns import (
    ClippingType,
    ReduplicativeType,
    classify_clipping,
    classify_reduplicative,
    split_pair,
    substitution_stats,
    SubstitutionStats,
    blend_suffix_stats,
)

__all__ = [
    "NgramKind",
    "FeatureVocabulary",
    "extract_char_ngrams",
    "extract_morpheme_ngrams",
    "feature_matrix",
    "fit_vocabulary",
    "vectorize",
    "word_features",
    "ClassifierModel",
    "loss_and_gradient",
    "train_logreg",
    "predict_proba",
    "predict_proba_batch",
    "save_classifier",
    "load_classifier",
    "ScoreType",
    "argmax_label",
    "confidence_score",
    "predict_with_reject",
    "LabelSampler",
    "cross_class_validate",
    "CrossClassReport",
    "ClippingType",
    "ReduplicativeType",
    "classify_clipping",
    "classify_reduplicative",
    "split_pair",
    "substitution_stats",
    "SubstitutionStats",
    "blend_suffix_stats",
]
