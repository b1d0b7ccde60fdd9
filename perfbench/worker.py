"""One repetition of a workload, in a fresh process.

Usage: python3 worker.py <spec.json>

The spec names the checkout root, the slanglex command lines to run one
after another, whether to trace, and where to write the result. The
timed region runs from the first command to the end of the last one;
importing slanglex is outside it, and the moment that import returned is
reported for the set-up time. Every stdout line a command prints is
kept with its time, which gives the per-stage times of ``pipeline`` (one
summary line per finished stage). The result JSON holds the wall and CPU
time, peak RSS, the lines, any failure, and with tracing the span
summary; the spans themselves go to a JSON-lines file next to it.
"""
from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path


class _Lines:
    """Stand-in for stdout that keeps each written line with its time."""

    encoding = "utf-8"

    def __init__(self):
        self.lines: list[tuple[float, str]] = []
        self._partial = ""

    def write(self, text) -> int:
        if isinstance(text, (bytes, bytearray)):
            text = text.decode("utf-8")
        now = time.perf_counter()
        self._partial += text
        *done, self._partial = self._partial.split("\n")
        self.lines.extend((now, line) for line in done)
        return len(text)

    def flush(self) -> None:
        pass

    def isatty(self) -> bool:
        return False


def _install_tracing(tracer, cli) -> None:
    """Wrap the coarse functions slanglex.cli imports from each library
    module, plus the logistic-regression loss, with per-layer span names.
    Per-value helpers (number formatting, token normalisation) stay
    unwrapped: a span would cost more than the call. Names the program no
    longer has are skipped, so tracing survives refactors."""
    from slanglex.phonology import ConversionSource
    from slanglex.slangclass import logreg

    def n_items(args, kwargs, result):
        return {"items": len(result)}

    layers = {
        "corpus": ["load_slang_lexicon", "load_standard_lexicon",
                   "load_gold_classes", "save_slang_lexicon",
                   "filter_by_votes", "split_gold", "stratified_split"],
        "phonology": ["to_phonemes", "phoneme_distribution",
                      "odds_ratio_ranking", "positional_manner_distribution",
                      "load_bundled_pronouncing_table",
                      "load_bundled_fallback_rules"],
        "morphology": ["train_segmenter", "segment", "affix_distribution",
                       "save_segmenter"],
        "slangclass": ["extract_char_ngrams", "extract_morpheme_ngrams",
                       "fit_vocabulary", "train_logreg", "predict_proba",
                       "predict_with_reject", "cross_class_validate",
                       "classify_clipping", "classify_reduplicative",
                       "substitution_stats", "blend_suffix_stats",
                       "random_baseline", "load_classifier",
                       "save_classifier"],
        "embeddings": ["build_usage_corpus", "train_skipgram",
                       "save_embeddings", "load_embeddings"],
        "social": ["knn_from_embedding", "evaluate_subject_model",
                   "load_bias_lexicons", "gender_direction", "direct_bias",
                   "occupation_projections", "name_prejudice_comparison",
                   "sexprej", "religious_prejudice_matrix"],
        "stats": ["weighted_f1"],
        "reports": ["write_csv", "provenance_lines"],
    }
    counters = {
        "load_slang_lexicon": n_items,
        "load_standard_lexicon": n_items,
        "load_gold_classes": n_items,
        "load_embeddings": n_items,
        "to_phonemes": lambda a, k, r: {
            "fallback": int(r.source is ConversionSource.RULE_FALLBACK)},
        "train_segmenter": lambda a, k, r: {
            "words": len(a[0]), "passes": len(r.training_costs) - 1},
        "train_skipgram": lambda a, k, r: {
            "token_epochs": sum(len(s) for s in a[0]) * a[1].epochs},
        "evaluate_subject_model": lambda a, k, r: {
            "queries": len(a[1]) - r.excluded, "refs": len(a[0].reference)},
        "write_csv": lambda a, k, r: {"bytes": Path(a[0]).stat().st_size},
    }
    for layer, attrs in layers.items():
        for attr in attrs:
            if hasattr(cli, attr):
                tracer.wrap(cli, attr, f"{layer}.{attr}", counters.get(attr))
    if hasattr(logreg, "loss_and_gradient"):
        tracer.wrap(logreg, "loss_and_gradient", "slangclass.loss_and_gradient")


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    src = Path(spec["root"]) / "src"
    sys.path.insert(0, str(src))
    import slanglex.cli as cli
    # perf_counter is system-wide, so the parent can subtract its spawn time
    imported_at = time.perf_counter()

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"slanglex imported from {cli.__file__}, not {src}")
    tracer = None
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer()
        _install_tracing(tracer, cli)

    out = _Lines()
    failures = []
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        for argv in spec["commands"]:
            try:
                cli.main(argv, standalone_mode=False)
            except Exception:  # a failed command is a failed operation
                failures.append({"argv": argv, "error": traceback.format_exc()})
    end = time.perf_counter()
    usage1 = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "imported_at": imported_at,
        "wall_s": end - start,
        "cpu_s": (usage1.ru_utime - usage0.ru_utime)
                 + (usage1.ru_stime - usage0.ru_stime),
        "maxrss_kb": usage1.ru_maxrss,
        "lines": [(t - start, line) for t, line in out.lines],
        "failures": failures,
    }
    if spec.get("environment"):
        import numpy as np
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        result["environment"] = {
            "python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}
    if tracer is not None:
        result["trace"] = tracer.summary()
        with open(spec["spans"], "w", encoding="utf-8") as handle:
            for name, t0, t1, parent in tracer.spans:
                handle.write(json.dumps([name, t0 - start, t1 - start, parent]) + "\n")
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
