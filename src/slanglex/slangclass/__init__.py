"""Four-class slang-formation classifier with open-set rejection, plus
rule-based analyzers for clipping, reduplicative, and blend patterns.

Import names from their modules: `features`, `logreg`, `openset` and
`patterns`."""
