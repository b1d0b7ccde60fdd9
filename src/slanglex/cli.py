"""Command-line driver for the slang lexicon analyses.

Subcommands mirror the library modules one to one; ``pipeline`` chains
their stage functions end to end, optionally on the bundled fixture
corpus. Every option is defined once, in ``OPTIONS``. Reports are CSV with
provenance headers; every subcommand takes ``--seed`` where randomness is
involved and is run-to-run deterministic. A command run parses each input
once: it runs in a `store.sharing` block and loads inputs, and what derives
from them, through `store.load`; the pipeline forgets a path it writes.

Config files use flat ``section.key = value`` lines (dots select the
subcommand, e.g. ``embed.dimension = 50``); explicit flags win over the
config file, which wins over built-in defaults.
"""
from __future__ import annotations

from importlib import resources
from pathlib import Path

import click

from . import __version__
from .corpus import (
    filter_by_votes,
    load_gold_classes,
    load_slang_lexicon,
    load_standard_lexicon,
    read_records,
    save_slang_lexicon,
    stratified_split,
)
from .embeddings import (
    TrainingConfig,
    build_usage_corpus,
    load_embeddings,
    save_embeddings,
    train_skipgram,
)
from .errors import SchemaError, SlanglexError
from .labels import REJECTED, SlangClass
from .morphology import (
    AffixSide,
    affix_distribution,
    letters,
    load_segmenter,
    save_segmenter,
    segment,
    train_segmenter,
)
from .phonology import (
    ConversionSource,
    Manner,
    WordPosition,
    has_letter,
    load_bundled_fallback_rules,
    load_bundled_pronouncing_table,
    manner_of,
    odds_ratio_ranking,
    phoneme_distribution,
    positional_manner_distribution,
    to_phonemes,
)
from .reports import csv_text, fnum, provenance_lines, summary_line, write_csv
from .slangclass.features import NgramKind, NgramTable
from .slangclass.logreg import (
    load_classifier,
    predict_proba_batch,
    save_classifier,
    train_logreg,
)
from .slangclass.openset import (
    LabelSampler,
    ScoreType,
    cross_class_validate,
    judge_rows,
)
from .slangclass.patterns import (
    blend_suffix_stats,
    classify_clipping,
    classify_reduplicative,
    split_pair,
    substitution_stats,
)
from .social import (
    GenderLexicon,
    check_k,
    direct_bias,
    evaluate_subject_model,
    gender_direction,
    knn_from_embedding,
    load_bias_lexicons,
    lookup,
    name_prejudice_comparison,
    occupation_projections,
    religious_prejudice_matrix,
)
from .stats import weighted_f1
from .store import forget, load, sharing

IN_FILE = click.Path(exists=True, dir_okay=False)
OUT_FILE = click.Path(dir_okay=False)

# key -> (flag declarations, click attributes). Commands name the keys they
# take; the parameter name is also the config key. The pipeline reads the
# defaults of the settings it does not expose from here too.
OPTIONS = {
    "fixtures": (("--fixtures",),
                 dict(is_flag=True, help="Run on the bundled miniature corpus.")),
    "slang": (("--slang", "slang_path"), dict(required=True, type=IN_FILE)),
    "standard": (("--standard", "standard_path"), dict(required=True, type=IN_FILE)),
    "gold": (("--gold", "gold_path"), dict(required=True, type=IN_FILE)),
    "vectors": (("--vectors", "vectors_path"), dict(required=True, type=IN_FILE)),
    "names": (("--names", "names_path"), dict(required=True, type=IN_FILE)),
    "lexicons": (("--lexicons", "lexicons_dir"),
                 dict(required=True, type=click.Path(exists=True, file_okay=False))),
    "model": (("--model", "model_path"), dict(required=True, type=IN_FILE)),
    "segmenter": (("--segmenter", "segmenter_path"), dict(
        type=IN_FILE, help="Saved segmenter TSV; for morph features only.")),
    "words": (("--words", "words_csv"), dict(help="Comma-separated words to label.")),
    "in": (("--in", "in_path"),
           dict(type=IN_FILE, help="File with one word per line.")),
    "out_dir": (("--out", "out_dir"),
                dict(required=True, type=click.Path(file_okay=False))),
    "out_file": (("--out", "out_path"), dict(required=True, type=OUT_FILE)),
    "out_csv": (("--out", "out_path"), dict(type=OUT_FILE)),
    "seed": (("--seed",), dict(default=0, type=click.IntRange(min=0))),
    "min_votes": (("--min-votes",), dict(
        default=100, help="Keep entries with at least this many total votes.")),
    "smoothing": (("--smoothing",), dict(
        default=1e-6, help="Additive smoothing for the odds ratios.")),
    "max_iters": (("--max-iters",), dict(default=10)),
    "affix_k": (("--affix-k",), dict(
        default=25, help="Rank cutoff for the affix share report.")),
    "features": (("--features", "kind"), dict(
        default="char", type=click.Choice([k.value for k in NgramKind]))),
    "n_min": (("--n-min",), dict(default=1)),
    "n_max": (("--n-max",), dict(default=5)),
    "cap": (("--cap",), dict(default=200, help="Feature vocabulary size.")),
    "l2": (("--l2",), dict(default=1.0)),
    "max_epochs": (("--max-epochs",), dict(
        default=500, help="Cap on L-BFGS iterations.")),
    "tol": (("--tol",), dict(default=1e-6)),
    "test_fraction": (("--test-fraction",), dict(default=0.10)),
    "delta": (("--delta",), dict(
        required=True, type=float, help="Rejection threshold (inclusive).")),
    "score": (("--score", "score_name"), dict(
        default="maxprob", type=click.Choice([s.value for s in ScoreType]))),
    "suffix_k": (("--suffix-k",), dict(
        default=5, help="Rank cutoff for the blend suffix report.")),
    "dimension": (("--dimension",), dict(default=100)),
    "window": (("--window",), dict(default=5)),
    "negatives": (("--negatives",), dict(default=5)),
    "min_count": (("--min-count",), dict(default=5)),
    "subsample": (("--subsample",), dict(default=1e-3)),
    "epochs": (("--epochs",), dict(default=5)),
    "lr": (("--lr",), dict(default=0.025)),
    "k": (("--k",), dict(default=5)),
    "strictness": (("--strictness",), dict(
        default=1.0, help="Exponent on |cosine| in the bias average.")),
    "n_perms": (("--n-perms",), dict(default=10_000)),
}
DEFAULT = {key: attrs["default"] for key, (_, attrs) in OPTIONS.items()
           if "default" in attrs}
# logistic regression (classes train and eval) and skip-gram (embed, pipeline)
FIT = {key: DEFAULT[key]
       for key in ("n_min", "n_max", "cap", "l2", "max_epochs", "tol")}
SGNS = ("dimension", "window", "negatives", "min_count", "subsample", "epochs",
        "lr")


def _names_parameter(command, parts) -> bool:
    """Whether dotted key ``parts`` is a subcommand path plus one of its
    parameter names."""
    for part in parts[:-1]:
        if not isinstance(command, click.Group) or part not in command.commands:
            return False
        command = command.commands[part]
    return (not isinstance(command, click.Group)
            and any(p.name == parts[-1] for p in command.params))


def _read_config(ctx, param, path):
    """Flat `a.b.c = value` lines -> nested default map for click; a key
    that names no subcommand parameter, like any malformed line, is a usage
    error naming the line."""
    if not path:
        return path

    def entry(line: str) -> tuple[list[str], str]:
        if "=" not in line:
            raise SchemaError("expected key = value")
        key, value = line.split("=", 1)
        parts = [p.strip().replace("-", "_") for p in key.strip().split(".")]
        if not all(parts):
            raise SchemaError("empty key component")
        if not _names_parameter(ctx.command, parts):
            raise SchemaError(f"unknown config key {key.strip()!r}")
        return parts, value.strip()

    try:
        entries = read_records(path, entry)
    except SchemaError as exc:
        raise click.UsageError(str(exc)) from None
    tree: dict = {}
    for parts, value in entries:
        node = tree
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    ctx.default_map = tree
    return path


def command(group, name: str, *keys: str, **overrides):
    """Register the decorated stage function, unchanged, as subcommand
    ``name``: it gets the ``keys`` options (``overrides[key]`` replaces
    attributes) as keyword arguments, in a `sharing()` block; a SlanglexError
    or OSError exits 1, and the summary dict it returns is echoed."""
    def register(fn):
        def callback(**params):
            try:
                with sharing():
                    info = fn(**params)
            except (SlanglexError, OSError) as exc:
                raise click.ClickException(str(exc)) from exc
            click.echo(summary_line(name, **info))
        for key in reversed(keys):
            decls, attrs = OPTIONS[key]
            callback = click.option(*decls, show_default=True,
                                    **{**attrs, **overrides.get(key, {})})(callback)
        group.command(name.rsplit(".", 1)[-1], help=fn.__doc__)(callback)
        return fn
    return register


def _score(score_name: str, delta: float) -> ScoreType:
    score = ScoreType(score_name)
    if score is ScoreType.MAX_PROB and not 0.0 <= delta <= 1.0:
        raise click.UsageError("MaxProb delta must be within [0, 1]")
    if score is ScoreType.NEG_ENTROPY and delta > 0.0:
        raise click.UsageError(
            "NegEntropy delta must be <= 0 (scores are negated entropy in nats)")
    return score


def _segmenter(kind: NgramKind, segmenter_path):
    """The --segmenter model; it goes with morph features and nothing else."""
    if kind is NgramKind.MORPHEME and segmenter_path is None:
        raise click.UsageError(f"{kind.value} features require --segmenter")
    if kind is not NgramKind.MORPHEME and segmenter_path is not None:
        raise click.UsageError(
            f"--segmenter applies only to morph features, not {kind.value}")
    return None if segmenter_path is None else load_segmenter(segmenter_path)


def _reports(out_dir, seed, inputs):
    """Writer of CSV reports into ``out_dir`` under one provenance header."""
    header = provenance_lines(seed, inputs)
    return lambda name, fields, rows: write_csv(Path(out_dir) / name, fields,
                                                rows, header)


@click.group()
@click.version_option(__version__, prog_name="slanglex")
@click.option("--config", type=click.Path(exists=True, dir_okay=False),
              callback=_read_config, is_eager=True, expose_value=False,
              help="Flat key=value config file; flags override it.")
def main():
    """Analyze slang lexicons: sounds, morphs, classes, vectors, bias."""


@main.group()
def classes():
    """Train, apply, and probe the slang-class detector."""


@main.group()
def bias():
    """Quantify stereotype signal in the trained vectors."""


@command(main, "ingest", "slang", "min_votes", "out_file")
def run_ingest(slang_path, min_votes, out_path) -> dict:
    """Filter a slang lexicon by community vote count."""
    entries = load(load_slang_lexicon, slang_path)
    kept = filter_by_votes(entries, min_votes)
    save_slang_lexicon(kept, out_path)
    return {"read": len(entries), "kept": len(kept),
            "dropped": len(entries) - len(kept), "min_votes": min_votes}


@command(main, "phonology", "slang", "standard", "out_dir", "smoothing")
def run_phonology(slang_path, standard_path, out_dir, smoothing) -> dict:
    """Phoneme distributions and slang-vs-standard odds ratios."""
    entries = load(load_slang_lexicon, slang_path)
    standard = load(load_standard_lexicon, standard_path)
    table = load_bundled_pronouncing_table()
    rules = load_bundled_fallback_rules()

    slang_words = [e.headword for e in entries if has_letter(e.headword)]
    std_words = [w for w in sorted(standard) if has_letter(w)]
    slang_seqs = [to_phonemes(w, table, rules) for w in slang_words]
    std_seqs = [to_phonemes(w, table, rules) for w in std_words]
    fallback = sum(1 for s in slang_seqs
                   if s.source is ConversionSource.RULE_FALLBACK)
    p_slang = phoneme_distribution(slang_seqs)
    p_std = phoneme_distribution(std_seqs)
    ranking = odds_ratio_ranking(p_slang, p_std, smoothing=smoothing)

    write = _reports(out_dir, None, [("slang", slang_path),
                                     ("standard", standard_path)])
    write("phoneme_odds.csv",
          ["rank", "phoneme", "manner", "odds_ratio", "p_slang", "p_standard"],
          [(e.rank, e.symbol, manner_of(e.symbol).value, fnum(e.ratio),
            fnum(p_slang.get(e.symbol, 0.0)), fnum(p_std.get(e.symbol, 0.0)))
           for e in ranking])
    rows = []
    for corpus_name, seqs in (("slang", slang_seqs), ("standard", std_seqs)):
        for position in (WordPosition.FIRST, WordPosition.FINAL):
            dist = positional_manner_distribution(seqs, position)
            rows += [(corpus_name, position.value, manner.value,
                      fnum(dist.get(manner, 0.0)))
                     for manner in sorted(Manner, key=lambda m: m.value)]
    write("manner_positions.csv", ["corpus", "position", "manner", "share"], rows)

    top = ranking[0]
    return {"slang_words": len(slang_seqs), "standard_words": len(std_seqs),
            "slang_skipped": len(entries) - len(slang_words),
            "standard_skipped": len(standard) - len(std_words),
            "fallback_conversions": fallback,
            "top_phoneme": top.symbol, "top_odds": top.ratio}


@command(main, "morphology", "slang", "standard", "out_dir", "max_iters",
         "affix_k", "seed")
def run_morphology(slang_path, standard_path, out_dir, max_iters, affix_k, seed):
    """Train code-length segmenters and compare affix inventories."""
    entries = load(load_slang_lexicon, slang_path)
    standard = load(load_standard_lexicon, standard_path)
    slang_words = sorted({w for w in (letters(e.headword) for e in entries) if w})
    std_words = sorted({w for w in map(letters, standard) if w})

    out = Path(out_dir)
    header = provenance_lines(seed, [("slang", slang_path),
                                     ("standard", standard_path)])
    info: dict = {}
    affix_rows = []
    for corpus_name, words in (("slang", slang_words), ("standard", std_words)):
        model = train_segmenter(words, max_iters=max_iters, seed=seed)
        segs = [segment(model, w) for w in words]
        for side in (AffixSide.PREFIX, AffixSide.SUFFIX):
            affix_rows += [(corpus_name, side.value, rank, affix, fnum(share),
                            fnum(cumulative))
                           for rank, (affix, share, cumulative) in enumerate(
                               affix_distribution(segs, side, k=affix_k), 1)]
        out.mkdir(parents=True, exist_ok=True)
        save_segmenter(model, out / f"segmenter_{corpus_name}.tsv")
        lines = header + [f"{seg.word}\t{'+'.join(seg.morphs)}" for seg in segs]
        (out / f"segmentations_{corpus_name}.tsv").write_text(
            "".join(line + "\n" for line in lines), encoding="utf-8")
        info[f"{corpus_name}_types"] = len(words)
        info[f"{corpus_name}_morphs"] = len(model.morph_counts)
        info[f"{corpus_name}_bits"] = model.total_code_length
    write_csv(out / "affix_shares.csv",
              ["corpus", "side", "rank", "affix", "share", "cumulative"],
              affix_rows, header)
    return info


def _char_table(gold_path, n_min, n_max) -> NgramTable:
    """The char n-grams of every gold word, for every char fit on the gold."""
    return NgramTable((r.word for r in load(load_gold_classes, gold_path)),
                      NgramKind.CHAR, n_min, n_max)


def _fit_classifier(gold_path, records, kind: NgramKind, segmenter, n_min,
                    n_max, cap, **fit):
    words = [r.word for r in records]
    table = (load(_char_table, gold_path, n_min, n_max) if kind is NgramKind.CHAR
             else NgramTable(words, kind, n_min, n_max, segmenter))
    return train_logreg(words, [r.label for r in records],
                        table.vocabulary(words, cap), segmenter, **fit)


def run_classes_train(gold_path, out_path, kind, segmenter, seed,
                      test_fraction, **fit):
    """Fit on the gold training split; returns the summary, the split as
    ``(train, test)`` and the test-split predictions."""
    train, test = stratified_split(load(load_gold_classes, gold_path),
                                   lambda r: r.label, test_fraction, seed)
    model = _fit_classifier(gold_path, train, kind, segmenter, **fit)
    if out_path is not None:
        Path(out_path).parent.mkdir(parents=True, exist_ok=True)
        save_classifier(model, out_path)
    probs = predict_proba_batch(model, [r.word for r in test], segmenter)
    preds = judge_rows(model.classes, probs)[0]
    f1 = weighted_f1([r.label for r in test], preds)
    return ({"features": kind.value, "train": len(train), "test": len(test),
             "vocab": len(model.vocab.features), "test_f1": f1,
             "stop": model.stop, "iterations": model.iterations},
            (train, test), preds)


@command(classes, "classes.train", "gold", "out_file", "features", "segmenter",
         *FIT, "test_fraction", "seed")
def classes_train(kind, segmenter_path, **params):
    """Fit the four-class detector on labeled words."""
    kind = NgramKind(kind)
    segmenter = _segmenter(kind, segmenter_path)
    return run_classes_train(kind=kind, segmenter=segmenter, **params)[0]


@command(classes, "classes.predict", "model", "words", "in", "delta", "score",
         "segmenter", "out_csv",
         out_csv={"help": "CSV destination; prints rows when omitted."})
def classes_predict(model_path, words_csv, in_path, delta, score_name,
                    segmenter_path, out_path) -> dict:
    """Label words, rejecting low-confidence predictions."""
    score = _score(score_name, delta)
    if (words_csv is None) == (in_path is None):
        raise click.UsageError("provide exactly one of --words or --in")
    model = load_classifier(model_path)
    segmenter = _segmenter(model.vocab.kind, segmenter_path)
    if words_csv is not None:
        words = [w.strip() for w in words_csv.split(",") if w.strip()]
    else:
        words = read_records(in_path, str.strip, comment=None)
    if not words:
        raise SlanglexError("no words to label")
    names = [str(c) for c in model.classes]
    probs = predict_proba_batch(model, words, segmenter)
    labels, scores = judge_rows(names, probs, score, delta)
    rows = [[word, str(label), fnum(value), *map(fnum, row)]
            for word, label, value, row in zip(words, labels, scores,
                                               probs.tolist())]
    fields = ["word", "prediction", "score"] + [f"p_{name}" for name in names]
    if out_path is not None:
        write_csv(out_path, fields, rows,
                  provenance_lines(None, [("model", model_path)]))
    else:
        click.echo(csv_text(fields, rows), nl=False)
    return {"words": len(words),
            "rejected": sum(1 for lab in labels if lab is REJECTED),
            "delta": delta, "score": score.value}


@command(classes, "classes.eval", "gold", "delta", "score", "seed",
         "test_fraction", *FIT, "out_csv")
def run_classes_eval(gold_path, delta, score_name, seed, test_fraction,
                     out_path, **fit) -> dict:
    """Cross-class validation: hold out each class as unknown."""
    score = _score(score_name, delta)

    def train(records):
        model = _fit_classifier(gold_path, records, NgramKind.CHAR, None, **fit)
        return lambda words: (model.classes, predict_proba_batch(model, words))

    report = cross_class_validate(load(load_gold_classes, gold_path), train, delta,
                                  score, seed, test_fraction=test_fraction)
    folds = sorted(report.fold_f1.items(), key=lambda i: str(i[0]))
    if out_path is not None:
        write_csv(out_path, ["held_class", "weighted_f1"],
                  [(str(cls), fnum(f1)) for cls, f1 in folds],
                  provenance_lines(seed, [("gold", gold_path)]))
    return {**{f"fold_{cls}": f1 for cls, f1 in folds},
            "mean_f1": report.mean_f1, "delta": delta, "score": score.value}


@command(classes, "classes.patterns", "gold", "out_dir", "suffix_k")
def run_classes_patterns(gold_path, out_dir, suffix_k, seed=None) -> dict:
    """Rule-based formation analyses over labeled words."""
    records = load(load_gold_classes, gold_path)
    blends = [r for r in records if r.label is SlangClass.BLEND]
    suffixes, skipped_blends = blend_suffix_stats(blends, k=suffix_k)
    clips = [r for r in records if r.label is SlangClass.CLIPPING]
    sourced = [(r.word, " ".join(r.components)) for r in clips if r.components]
    redups = [r.word for r in records if r.label is SlangClass.REDUPLICATIVE]
    paired = [(word, parts) for word in redups
              if (parts := split_pair(word)) is not None]
    subs = substitution_stats([parts for _, parts in paired])

    write = _reports(out_dir, seed, [("gold", gold_path)])
    write("clipping_types.csv", ["word", "source", "type"],
          [(word, source, classify_clipping(word, source).value)
           for word, source in sourced])
    write("reduplicative_types.csv", ["word", "type"],
          [(word, classify_reduplicative(word).value) for word, _ in paired])
    if subs.skipped < len(paired):
        write("substitutions.csv", ["original", "replacement", "share"],
              [(a, b, fnum(share)) for a, row in subs.replacements.items()
               for b, share in row.items()])
    if suffixes:
        write("blend_suffixes.csv", ["rank", "suffix", "share", "cumulative"],
              [(rank, suffix, fnum(share), fnum(cumulative))
               for rank, (suffix, share, cumulative) in enumerate(suffixes, 1)])

    return {"clippings": len(sourced),
            "clippings_unsourced": len(clips) - len(sourced),
            "reduplicatives": len(redups),
            "reduplicatives_unpaired": len(redups) - len(paired),
            "substitution_pairs_skipped": subs.skipped,
            "blends": len(blends), "blends_skipped": skipped_blends}


@command(main, "embed", "slang", "out_file", *SGNS, "seed")
def run_embed(slang_path, out_path, seed, **sgns) -> dict:
    """Train skip-gram vectors on usage examples."""
    config = TrainingConfig(seed=seed, **sgns)
    entries = load(load_slang_lexicon, slang_path)
    corpus = build_usage_corpus(entries)
    table = train_skipgram(corpus, config)
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    save_embeddings(table, out_path)
    return {"entries": len(entries), "sentences": len(corpus),
            "tokens": sum(len(s) for s in corpus), "vocab": len(table),
            "dimension": table.dimension,
            "first_epoch_loss": table.epoch_losses[0],
            "last_epoch_loss": table.epoch_losses[-1]}


@command(main, "subjects", "slang", "vectors", "out_dir", "k", "test_fraction",
         "seed")
def run_subjects(slang_path, vectors_path, out_dir, k, test_fraction,
                 seed) -> dict:
    """Nearest-neighbor subject classification over trained vectors."""
    tagged = [e for e in load(load_slang_lexicon, slang_path) if e.subjects]
    labeled = [(e.headword, next(iter(e.subjects))) for e in tagged
               if len(e.subjects) == 1]
    if not labeled:
        raise SlanglexError("no entry carries exactly one subject tag")
    train, test = stratified_split(labeled, lambda item: item[1],
                                   test_fraction, seed)
    embedding = load(load_embeddings, vectors_path)
    model, skipped_train = knn_from_embedding(embedding, train, k=k)
    evaluation = evaluate_subject_model(model, test, embedding)

    write = _reports(out_dir, seed, [("slang", slang_path),
                                     ("vectors", vectors_path)])
    confusion = evaluation.confusion
    write("subject_confusion.csv", ["true", "predicted", "count"],
          [(str(t), str(p), confusion[t, p])
           for t in confusion.labels for p in confusion.labels])
    write("subject_metrics.csv", ["label", "precision", "recall", "f1", "support"],
          [(str(m.label), fnum(m.precision), fnum(m.recall), fnum(m.f1), m.support)
           for m in sorted(evaluation.per_class, key=lambda m: str(m.label))])
    return {"labeled": len(labeled), "ambiguous_skipped": len(tagged) - len(labeled),
            "train": len(train), "test": len(test),
            "train_oov_skipped": skipped_train,
            "test_oov_excluded": evaluation.excluded,
            "weighted_f1": evaluation.f1}


@command(bias, "bias.gender", "vectors", "lexicons", "out_dir", "strictness")
def run_bias_gender(vectors_path, lexicons_dir, out_dir, strictness) -> dict:
    """Gender direction, direct bias, and occupation projections."""
    embedding = load(load_embeddings, vectors_path)
    lexicons = load(load_bias_lexicons, lexicons_dir)
    present = [pair for pair in lexicons.gender_pairs
               if all(lookup(embedding, pair)[0])]
    if not present:
        raise SlanglexError("no gender pair is fully inside the vocabulary")
    g = gender_direction(embedding, present)
    bias_value = direct_bias(embedding, lexicons.occupations, g, c=strictness)
    projections = occupation_projections(embedding, lexicons.occupations, g)

    write = _reports(out_dir, None, [("vectors", vectors_path)])
    write("occupation_projections.csv", ["rank", "occupation", "cosine_to_female"],
          [(rank, word, fnum(value))
           for rank, (word, value) in enumerate(projections, 1)])
    return {"direct_bias": bias_value, "strictness": strictness,
            "pairs_used": len(present),
            "pairs_missing": len(lexicons.gender_pairs) - len(present),
            "occupations_scored": len(projections),
            "occupations_missing": len(lexicons.occupations) - len(projections)}


@command(bias, "bias.sexprej", "vectors", "lexicons", "names", "out_dir",
         "n_perms", "seed")
def run_bias_sexprej(vectors_path, lexicons_dir, names_path, out_dir, n_perms,
                     seed) -> dict:
    """Sexual-prejudice proximity of personal names, by gender."""
    embedding = load(load_embeddings, vectors_path)
    terms = load(load_bias_lexicons, lexicons_dir).prejudice_terms
    genders = GenderLexicon.from_csv(names_path)
    report = name_prejudice_comparison(embedding, genders.names, genders, terms,
                                       n_permutations=n_perms, seed=seed)
    write = _reports(out_dir, seed, [("vectors", vectors_path),
                                     ("names", names_path)])
    write("name_sexprej.csv", ["name", "gender", "sexprej"],
          [(name, gender.value, fnum(score))
           for name, gender, score in report.scores])
    terms_present = sum(lookup(embedding, terms)[0])
    return {"female_mean": report.female_mean, "female_n": report.female_n,
            "male_mean": report.male_mean, "male_n": report.male_n,
            "difference": report.difference, "p_value": report.p_value,
            "exhaustive": report.exhaustive,
            "excluded_unknown": report.excluded_unknown,
            "excluded_oov": report.excluded_oov,
            "terms_present": terms_present,
            "terms_missing": len(terms) - terms_present}


@command(bias, "bias.religion", "vectors", "lexicons", "out_dir")
def run_bias_religion(vectors_path, lexicons_dir, out_dir) -> dict:
    """Religion-to-trait cosine matrix, column standardized."""
    embedding = load(load_embeddings, vectors_path)
    lexicons = load(load_bias_lexicons, lexicons_dir)
    report = religious_prejudice_matrix(embedding, lexicons.religious_terms,
                                        lexicons.trait_terms)
    write = _reports(out_dir, None, [("vectors", vectors_path)])
    for name, matrix in (("raw", report.raw),
                         ("standardized", report.standardized)):
        write(f"religious_bias_{name}.csv", ["religion", *report.prejudices],
              [[religion] + [fnum(float(value)) for value in matrix[i]]
               for i, religion in enumerate(report.religions)])
    return {"religions": len(report.religions),
            "traits": len(report.prejudices),
            "overall_mean_raw": report.overall_mean_raw,
            "missing_religions": len(report.missing_religions),
            "missing_traits": len(report.missing_prejudices)}


def _compare_classifiers(gold_path, out: Path, segmenter, seed) -> dict:
    """Char vs morph features vs a label-draw baseline on one test split."""
    f1 = {}
    predictions = []
    for kind in NgramKind:
        info, (train, test), preds = run_classes_train(
            gold_path, None, kind, segmenter, seed, DEFAULT["test_fraction"], **FIT)
        f1[kind.value] = info["test_f1"]
        predictions.append(preds)
    truth = [r.label for r in test]
    sampler = LabelSampler([r.label for r in train], seed)
    f1["baseline"] = weighted_f1(truth, sampler.draw(len(truth)))

    write = _reports(out, seed, [("gold", gold_path)])
    write("class_model_comparison.csv", ["model", "weighted_f1"],
          [(model, fnum(value)) for model, value in f1.items()])
    write("class_predictions.csv",
          ["word", "true", "char_prediction", "morph_prediction"],
          [(r.word, str(r.label), str(char), str(morph))
           for r, char, morph in zip(test, *predictions)])
    return {f"{model}_f1": value for model, value in f1.items()}


def run_pipeline(slang_path, standard_path, gold_path, lexicons_dir,
                 names_path, out_dir, seed, min_votes, delta, score_name, k,
                 echo=click.echo, **sgns) -> None:
    """Every stage in order; ``echo`` gets one summary line per stage. The
    skip-gram and KNN settings are checked before any stage writes."""
    TrainingConfig(seed=seed, **sgns)
    check_k(k)

    def done(stage: str, info: dict) -> None:
        echo(summary_line(f"pipeline.{stage}", **info))

    out = Path(out_dir)
    filtered, vectors = out / "filtered.jsonl", out / "vectors.txt"
    info = run_ingest(slang_path, min_votes, filtered)
    forget(filtered)
    done("ingest", {key: info[key] for key in ("read", "kept", "min_votes")})
    done("phonology", run_phonology(filtered, standard_path, out,
                                    DEFAULT["smoothing"]))
    done("morphology", run_morphology(filtered, standard_path, out,
                                      DEFAULT["max_iters"], DEFAULT["affix_k"],
                                      seed))
    segmenter = load(load_segmenter, out / "segmenter_slang.tsv")
    done("classes", _compare_classifiers(gold_path, out, segmenter, seed))
    info = run_classes_eval(gold_path, delta, score_name, seed,
                            DEFAULT["test_fraction"], out / "crossclass_f1.csv",
                            **FIT)
    done("crossclass", {"mean_f1": info["mean_f1"]})
    done("patterns", run_classes_patterns(gold_path, out, DEFAULT["suffix_k"], seed))
    done("embed", run_embed(filtered, vectors, seed=seed, **sgns))
    forget(vectors)
    done("subjects", run_subjects(filtered, vectors, out, k,
                                  DEFAULT["test_fraction"], seed))
    done("bias.gender", run_bias_gender(vectors, lexicons_dir, out,
                                        DEFAULT["strictness"]))
    done("bias.sexprej", run_bias_sexprej(vectors, lexicons_dir, names_path,
                                          out, DEFAULT["n_perms"], seed))
    done("bias.religion", run_bias_religion(vectors, lexicons_dir, out))


# the bundled fixture for each pipeline input option, used with --fixtures
FIXTURES = {"slang": "slang.jsonl", "standard": "standard.tsv",
            "gold": "gold_classes.csv", "lexicons": "lexicons",
            "names": "names_gender.csv"}


@command(main, "pipeline", "fixtures", "slang", "standard", "gold", "lexicons",
         "names", "out_dir", "seed", "min_votes", *SGNS, "delta", "score", "k",
         out_dir={"default": "slanglex-run", "required": False},
         min_count={"default": 2,
                    "help": "Fixture-scale default; raise for larger corpora."},
         epochs={"default": 8}, delta={"default": 0.5, "required": False},
         **{key: {"required": False} for key in FIXTURES})
def pipeline(fixtures, **params) -> dict:
    """Run every analysis in sequence into one output directory."""
    _score(params["score_name"], params["delta"])
    missing = []
    for key, fixture in FIXTURES.items():
        flag, name = OPTIONS[key][0]
        if fixtures and params[name] is None:
            params[name] = str(resources.files("slanglex").joinpath(
                "data", "fixtures", fixture))
        if params[name] is None:
            missing.append(flag)
    if missing:
        raise click.UsageError(
            f"missing inputs (or pass --fixtures): {', '.join(missing)}")
    run_pipeline(**params)
    return {"out": params["out_dir"], "seed": params["seed"]}


if __name__ == "__main__":
    main()
