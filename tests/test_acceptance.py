"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single pass/fail line
(bypassing capture) so the suite output doubles as a checklist. Expected
values come from independent oracles: hand-enumerated pattern types,
central finite differences, exhaustive code-length search, brute-force
statistics, and closed-form bias fixtures.
"""
import itertools
import math
import random
import string
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest
from click.testing import CliRunner

from slanglex.cli import main as cli_main
from slanglex.corpus import GoldClassRecord, stratified_split
from slanglex.embeddings import (
    EmbeddingTable,
    TrainingConfig,
    cosine,
    sgns_pair_gradients,
    train_skipgram,
)
from slanglex.labels import REJECTED, SlangClass
from slanglex.morphology import segment, train_segmenter
from slanglex.phonology import (
    load_bundled_fallback_rules,
    load_bundled_pronouncing_table,
    to_phonemes,
)
from slanglex.slangclass.features import NgramKind, NgramTable
from slanglex.slangclass.logreg import (
    loss_and_gradient,
    predict_proba_batch,
    train_logreg,
)
from slanglex.slangclass.openset import LabelSampler, ScoreType, judge_rows
from slanglex.slangclass.patterns import (
    ClippingType,
    ReduplicativeType,
    classify_clipping,
    classify_reduplicative,
)
from slanglex.social import (
    Gender,
    GenderLexicon,
    direct_bias,
    gender_direction,
    name_prejudice_comparison,
    permutation_test_means,
    religious_prejudice_matrix,
)
from slanglex.stats import confusion_and_report, weighted_f1


@contextmanager
def criterion(number, name, capsys):
    """Print one unmistakable line per criterion, even under capture."""
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\nACCEPTANCE {number} {name}: FAIL")
        raise
    with capsys.disabled():
        print(f"\nACCEPTANCE {number} {name}: PASS")


def embedding_from(vectors: dict) -> EmbeddingTable:
    tokens = tuple(vectors)
    matrix = np.array([vectors[t] for t in tokens], dtype=np.float64)
    return EmbeddingTable(tokens, matrix)


def test_c1_pattern_rule_fidelity(capsys):
    with criterion(1, "pattern-rule fidelity", capsys):
        start = time.perf_counter()
        assert classify_clipping("nigg", "nigger") is ClippingType.BACK
        assert classify_clipping("roach", "cockroach") is ClippingType.FORE
        assert classify_clipping("slowmo", "slow motion") is ClippingType.COMPOUND
        assert classify_reduplicative("boo boo") is ReduplicativeType.DUP
        assert classify_reduplicative("flip-flop") is ReduplicativeType.EX_VOW
        assert classify_reduplicative("bitsy-witsy") is ReduplicativeType.EX_CONS
        assert classify_reduplicative("moodle-schmoodle") is ReduplicativeType.SHM
        table = load_bundled_pronouncing_table()
        rules = load_bundled_fallback_rules()
        woody = to_phonemes("woody", table, rules)
        assert woody.phonemes == ("W", "UH", "D", "IY")
        assert time.perf_counter() - start < 1.0


def test_c2_gradients_match_finite_differences(capsys):
    with criterion(2, "gradient checks", capsys):
        start = time.perf_counter()
        h = 1e-6

        rng = np.random.default_rng(41)
        for trial in range(100):
            n_classes = int(rng.integers(2, 5))
            n_features = int(rng.integers(1, 6))
            n_rows = int(rng.integers(1, 8))
            l2 = float(rng.choice([0.0, 0.5, 2.0]))
            x = rng.normal(size=(n_rows, n_features))
            x = np.hstack([x, np.ones((n_rows, 1))])  # the bias column
            y = rng.integers(0, n_classes, size=n_rows)
            w = rng.normal(scale=0.5, size=(n_classes, n_features + 1))
            _, analytic = loss_and_gradient(w, x, y, l2)
            numeric = np.zeros_like(w)
            for i in range(w.shape[0]):
                for j in range(w.shape[1]):
                    up, down = w.copy(), w.copy()
                    up[i, j] += h
                    down[i, j] -= h
                    numeric[i, j] = (loss_and_gradient(up, x, y, l2)[0]
                                     - loss_and_gradient(down, x, y, l2)[0]) / (2 * h)
            err = np.linalg.norm(analytic - numeric)
            assert err / max(np.linalg.norm(numeric), 1e-12) < 1e-5, \
                f"logreg trial {trial}"

        rng = np.random.default_rng(42)
        for trial in range(100):
            d = int(rng.integers(2, 8))
            k = int(rng.integers(1, 6))
            center = rng.normal(scale=0.8, size=d)
            positive = rng.normal(scale=0.8, size=d)
            negatives = rng.normal(scale=0.8, size=(k, d))
            _, g_c, g_p, g_n = sgns_pair_gradients(center, positive, negatives)

            def loss_at(c, p, n):
                return sgns_pair_gradients(c, p, n)[0]

            fd_c = np.zeros(d)
            fd_p = np.zeros(d)
            for j in range(d):
                up, down = center.copy(), center.copy()
                up[j] += h
                down[j] -= h
                fd_c[j] = (loss_at(up, positive, negatives)
                           - loss_at(down, positive, negatives)) / (2 * h)
                up, down = positive.copy(), positive.copy()
                up[j] += h
                down[j] -= h
                fd_p[j] = (loss_at(center, up, negatives)
                           - loss_at(center, down, negatives)) / (2 * h)
            fd_n = np.zeros((k, d))
            for i in range(k):
                for j in range(d):
                    up, down = negatives.copy(), negatives.copy()
                    up[i, j] += h
                    down[i, j] -= h
                    fd_n[i, j] = (loss_at(center, positive, up)
                                  - loss_at(center, positive, down)) / (2 * h)
            for analytic, numeric in ((g_c, fd_c), (g_p, fd_p), (g_n, fd_n)):
                err = np.linalg.norm(analytic - numeric)
                assert err / max(np.linalg.norm(numeric), 1e-12) < 1e-4, \
                    f"sgns trial {trial}"

        assert time.perf_counter() - start < 30.0


def test_c3_open_set_contract(capsys):
    with criterion(3, "open-set contract", capsys):
        rng = random.Random(20240816)
        letters = [chr(ord("A") + i) for i in range(6)]
        violations = 0
        for _ in range(10_000):
            k = rng.randint(2, 6)
            raw = [rng.random() + 1e-9 for _ in range(k)]
            total = sum(raw)
            row = [raw[i] / total for i in range(k)]
            classes = letters[:k]
            # the argmax written out: ties go to the smallest label
            top = min(c for c, p in zip(classes, row) if p == max(row))
            for score in (ScoreType.MAX_PROB, ScoreType.NEG_ENTROPY):
                value = judge_rows(classes, [row], score)[1][0]
                if score is ScoreType.MAX_PROB:
                    floor = 1.0 / k
                    grid = sorted(rng.uniform(0.0, 1.0) for _ in range(6))
                else:
                    floor = -math.log(k)
                    grid = sorted(rng.uniform(floor - 0.5, 0.0)
                                  for _ in range(6))
                # nothing may be rejected below the attainable minimum
                out = judge_rows(classes, [row], score, floor - 1e-9)[0][0]
                if out is REJECTED or out != top:
                    violations += 1
                # the boundary itself rejects
                at = judge_rows(classes, [row], score, value)[0][0]
                if at is not REJECTED:
                    violations += 1
                # rejection is monotone in delta; accepted labels are argmax
                rejected_flags = []
                for delta in grid:
                    result = judge_rows(classes, [row], score, delta)[0][0]
                    rejected_flags.append(result is REJECTED)
                    if result is not REJECTED and result != top:
                        violations += 1
                if rejected_flags != sorted(rejected_flags):
                    violations += 1
        assert violations == 0


SEED_LEXICON = [
    "absolute", "bicycle", "calendar", "dangerous", "electric", "fantastic",
    "gradient", "hospital", "imported", "junction", "kingdom", "laborious",
    "magnetic", "national", "operatic", "paradise", "question", "resource",
    "standard", "tropical", "umbrella", "vacation", "wonderful", "xylograph",
    "yearning", "zeppelin", "mountain", "riverbed", "sunshine", "festival",
    "notebook", "triangle", "velocity", "harmonic", "particle", "democracy",
    "elephant", "chocolate", "universe", "telephone",
]


def synthetic_gold(seed: int = 11) -> list[GoldClassRecord]:
    """400 labeled words, 100 per class, with class-typical shapes:
    dotted capitals, echoed hyphen pairs, seed-word truncations, and
    two-word merges."""
    rng = random.Random(seed)
    vowels = "aeiou"
    consonants = "bcdfgklmnprstvz"
    records: list[GoldClassRecord] = []
    seen: set[str] = set()

    def add(word: str, label: SlangClass) -> None:
        if word not in seen:
            seen.add(word)
            records.append(GoldClassRecord(word=word, label=label))

    def count(label: SlangClass) -> int:
        return sum(1 for r in records if r.label is label)

    while count(SlangClass.ALPHABETISM) < 100:
        k = rng.randint(2, 4)
        add(".".join(rng.choice(string.ascii_uppercase) for _ in range(k)) + ".",
            SlangClass.ALPHABETISM)
    while count(SlangClass.REDUPLICATIVE) < 100:
        onset = rng.choice(consonants)
        if rng.random() < 0.4:
            onset += rng.choice("lr")
        v1, v2 = rng.sample(vowels, 2)
        coda = rng.choice(consonants)
        add(f"{onset}{v1}{coda}-{onset}{v2}{coda}", SlangClass.REDUPLICATIVE)
    while count(SlangClass.CLIPPING) < 100:
        word = rng.choice(SEED_LEXICON)
        cut = rng.randint(3, len(word) - 2)
        add(word[:cut], SlangClass.CLIPPING)
    while count(SlangClass.BLEND) < 100:
        first, second = rng.sample(SEED_LEXICON, 2)
        head = first[:rng.randint(3, 5)]
        tail = second[len(second) - rng.randint(3, 5):]
        add(head + tail, SlangClass.BLEND)
    return records


def test_c4_synthetic_gold_classifier(capsys):
    with criterion(4, "synthetic gold classifier", capsys):
        start = time.perf_counter()
        records = synthetic_gold()
        assert len(records) == 400
        train, test = stratified_split(records, lambda r: r.label, 0.10, seed=4)
        assert len(test) == 40
        train_words = [r.word for r in train]
        train_labels = [r.label for r in train]
        truth = [r.label for r in test]

        char_vocab = NgramTable(train_words, NgramKind.CHAR, 1, 3).vocabulary(
            train_words, cap=800)
        char_model = train_logreg(train_words, train_labels, char_vocab,
                                  l2=0.5, max_epochs=400, tol=1e-6)
        test_words = [r.word for r in test]
        char_pred = judge_rows(char_model.classes,
                               predict_proba_batch(char_model, test_words))[0]
        f1_char = weighted_f1(truth, char_pred)

        segmenter = train_segmenter(sorted(set(train_words)), seed=0,
                                    max_iters=10)
        morph_vocab = NgramTable(train_words, NgramKind.MORPHEME, 1, 2,
                                 segmenter).vocabulary(train_words, cap=800)
        morph_model = train_logreg(train_words, train_labels, morph_vocab,
                                   segmenter, l2=0.5, max_epochs=400,
                                   tol=1e-6)
        morph_pred = judge_rows(morph_model.classes, predict_proba_batch(
            morph_model, test_words, segmenter))[0]
        f1_morph = weighted_f1(truth, morph_pred)

        baseline_pred = LabelSampler(train_labels, seed=0).draw(len(truth))
        f1_random = weighted_f1(truth, baseline_pred)

        elapsed = time.perf_counter() - start
        with capsys.disabled():
            print(f"\n  char={f1_char:.4f} morph={f1_morph:.4f} "
                  f"random={f1_random:.4f} ({elapsed:.1f}s)")
        assert f1_char >= 0.90
        assert f1_char > f1_morph > f1_random
        assert elapsed < 60.0


def oracle_cost(morph_counts: Counter, alphabet_size: int) -> float:
    """Description length recomputed from the definition: each distinct
    morph is spelled letter by letter plus a terminator and its count is
    carried in Elias gamma; the corpus part is the empirical entropy."""
    total = sum(morph_counts.values())
    model_bits = 0.0
    for morph, c in morph_counts.items():
        model_bits += (len(morph) + 1) * math.log2(alphabet_size + 1)
        model_bits += 2 * math.floor(math.log2(c)) + 1
    corpus_bits = total * math.log2(total)
    corpus_bits -= sum(c * math.log2(c) for c in morph_counts.values())
    return model_bits + corpus_bits


def all_segmentations(word: str):
    if not word:
        return [()]
    out = []
    for i in range(1, len(word) + 1):
        for rest in all_segmentations(word[i:]):
            out.append((word[:i],) + rest)
    return out


def test_c5_code_length_oracle(capsys):
    with criterion(5, "description-length oracle", capsys):
        lexicon = ("dogcat", "catdog", "dog", "cat")
        alphabet_size = len(set("".join(lexicon)))
        per_word = [all_segmentations(w) for w in lexicon]
        best_cost = math.inf
        best = None
        for assignment in itertools.product(*per_word):
            counts = Counter(m for seg in assignment for m in seg)
            cost = oracle_cost(counts, alphabet_size)
            if cost < best_cost - 1e-9:
                best_cost = cost
                best = assignment
        model = train_segmenter(lexicon, max_iters=10, seed=0)
        assert model.total_code_length == pytest.approx(best_cost, abs=1e-9)
        assert segment(model, "dogcat").morphs == best[0] == ("dog", "cat")

        # concatenation must survive any input, in and out of vocabulary
        rng = random.Random(5)
        vocab = ["".join(rng.choice("dogcatfsh") for _ in range(rng.randint(2, 8)))
                 for _ in range(30)]
        fuzz_model = train_segmenter(sorted(set(vocab)), max_iters=10, seed=0)
        violations = 0
        for _ in range(10_000):
            pool = "dogcatfsh" if rng.random() < 0.8 else string.ascii_lowercase
            word = "".join(rng.choice(pool) for _ in range(rng.randint(1, 14)))
            if "".join(segment(fuzz_model, word).morphs) != word:
                violations += 1
        assert violations == 0


def test_c6_statistics_oracles(capsys):
    with criterion(6, "statistics oracles", capsys):
        rng = random.Random(3)
        labels = ["A", "B", "C"]
        for _ in range(50):
            n = rng.randint(2, 40)
            truth = [rng.choice(labels) for _ in range(n)]
            pred = [rng.choice(labels) for _ in range(n)]
            # brute-force per-class tally
            expected_f1 = 0.0
            for cls in set(truth):
                tp = sum(1 for t, p in zip(truth, pred) if t == cls and p == cls)
                fp = sum(1 for t, p in zip(truth, pred) if t != cls and p == cls)
                fn = sum(1 for t, p in zip(truth, pred) if t == cls and p != cls)
                prec = tp / (tp + fp) if tp + fp else 0.0
                rec = tp / (tp + fn) if tp + fn else 0.0
                f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
                expected_f1 += (truth.count(cls) / n) * f1
            assert weighted_f1(truth, pred) == pytest.approx(expected_f1, abs=1e-6)
            confusion, _ = confusion_and_report(truth, pred, labels)
            for t_cls in labels:
                for p_cls in labels:
                    tally = sum(1 for t, p in zip(truth, pred)
                                if t == t_cls and p == p_cls)
                    assert confusion[t_cls, p_cls] == tally


def test_c7_bias_metric_fixtures(capsys):
    with criterion(7, "bias-metric fixtures", capsys):
        emb = embedding_from({
            "he": [1.0, 0.0, 0.0],
            "she": [-1.0, 0.0, 0.0],
            "orthogonal": [0.0, 1.0, 0.0],
            "parallel": [1.0, 0.0, 0.0],
        })
        g = gender_direction(emb, [("he", "she")])
        assert direct_bias(emb, ["orthogonal"], g, c=1.0) == pytest.approx(
            0.0, abs=1e-9)
        assert direct_bias(emb, ["parallel"], g, c=1.0) == pytest.approx(
            1.0, abs=1e-9)

        emb2 = embedding_from({
            "r1": [1.0, 0.0],
            "r2": [0.0, 1.0],
            "r3": [1.0, 1.0],
            "p1": [1.0, 0.0],
            "p2": [0.0, 1.0],
        })
        report = religious_prejudice_matrix(emb2, ["r1", "r2", "r3"],
                                            ["p1", "p2"])
        standardized = np.array(report.standardized)
        for j in range(standardized.shape[1]):
            assert float(np.mean(standardized[:, j])) == pytest.approx(0.0, abs=1e-9)
            assert float(np.std(standardized[:, j], ddof=1)) == pytest.approx(
                1.0, abs=1e-9)

        emb3 = embedding_from({
            "word": [1.0, 0.0],
            "near": [1.0, 0.0],
            "far": [0.0, 1.0],
            "eve": [0.0, 1.0], "bob": [1.0, 0.0], "tom": [0.0, 1.0],
        })
        genders = GenderLexicon({"word": Gender.FEMALE, "eve": Gender.FEMALE,
                                 "bob": Gender.MALE, "tom": Gender.MALE})
        report = name_prejudice_comparison(emb3, genders.names, genders,
                                           ["near", "far"],
                                           n_permutations=10_000, seed=0)
        name, _, value = report.scores[0]
        # hand mean of cosines: (1 + 0) / 2
        assert name == "word"
        assert value == pytest.approx(0.5, abs=1e-9)

        p, exhaustive = permutation_test_means([0.9, 0.9], [0.1, 0.1],
                                               n_permutations=10_000, seed=0)
        assert exhaustive
        assert p == pytest.approx(1.0 / 3.0, abs=1e-12)


def identical_context_corpus():
    a = "the quick brown xxx jumps over fence".split()
    b = "the quick brown yyy jumps over fence".split()
    c = "cold rain falls zzz under grey cloud".split()
    return [a, b, c] * 40


def test_c8_embedding_semantics(capsys):
    with criterion(8, "embedding semantics", capsys):
        start = time.perf_counter()
        corpus = identical_context_corpus()
        wins = 0
        for seed in range(5):
            config = TrainingConfig(dimension=20, window=2, negatives=5,
                                    epochs=20, lr=0.025, min_count=1,
                                    subsample=0.0, seed=seed)
            table = train_skipgram(corpus, config)
            same = cosine(table.vector("xxx"), table.vector("yyy"))
            other = cosine(table.vector("xxx"), table.vector("zzz"))
            if same > other:
                wins += 1
            assert table.epoch_losses[-1] < table.epoch_losses[0]
        assert wins == 5
        assert time.perf_counter() - start < 60.0


def test_c9_pipeline_determinism(capsys, tmp_path):
    with criterion(9, "end-to-end determinism", capsys):
        start = time.perf_counter()
        runner = CliRunner()
        outputs = []
        for name in ("first", "second"):
            out_dir = tmp_path / name
            result = runner.invoke(cli_main, [
                "pipeline", "--fixtures", "--seed", "7",
                "--out", str(out_dir)])
            assert result.exit_code == 0, result.output
            outputs.append({p.relative_to(out_dir): p.read_bytes()
                            for p in sorted(out_dir.rglob("*")) if p.is_file()})
        first, second = outputs
        assert first.keys() == second.keys()
        assert len(first) > 0
        for path in first:
            assert first[path] == second[path], f"{path} differs between runs"
        assert time.perf_counter() - start < 120.0
