"""slanglex: phonological, morphological, and social analysis of slang
lexicons, with open-set classification and embedding bias metrics."""

__version__ = "0.1.0"
