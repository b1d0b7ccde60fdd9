"""Command-line behavior: exit codes, report content, config precedence,
and agreement between CLI output and direct library calls."""
import csv
import json
import shutil
from importlib.resources import files

import click
import numpy as np
import pytest
from click.testing import CliRunner

from slanglex.cli import OPTIONS, main


@pytest.fixture
def runner():
    return CliRunner()


SLANG_ENTRIES = [
    {"headword": "woody", "definitions": ["an erection"],
     "examples": ["he woke up with a woody", "that woody would not quit"],
     "upvotes": 150, "downvotes": 20, "subjects": ["Sex"]},
    {"headword": "boo", "definitions": ["a sweetheart"],
     "examples": ["she is my boo", "my boo called me twice"],
     "upvotes": 90, "downvotes": 30, "subjects": ["Sex"]},
    {"headword": "zorp", "definitions": ["nonsense word"],
     "examples": ["stop saying zorp", "zorp is not a thing"],
     "upvotes": 40, "downvotes": 10, "subjects": ["Internet"]},
    {"headword": "lowkey", "definitions": ["slightly"],
     "examples": ["i lowkey liked it", "she lowkey knew my boo"],
     "upvotes": 300, "downvotes": 5, "subjects": ["Internet"]},
]

GOLD_ROWS = []
for i in range(8):
    GOLD_ROWS.append(f"w.{chr(97 + i)}.c,Alphabetism")
    GOLD_ROWS.append(f"{chr(97 + i)}oo-{chr(97 + i)}oo,Reduplicative")
    GOLD_ROWS.append(f"blen{chr(97 + i)}o,Blend")
    GOLD_ROWS.append(f"cli{chr(97 + i)},Clipping")
GOLD_CSV = "\n".join(GOLD_ROWS) + "\n"


def write_inputs(directory):
    slang = directory / "slang.jsonl"
    slang.write_text("\n".join(json.dumps(e) for e in SLANG_ENTRIES) + "\n",
                     encoding="utf-8")
    standard = directory / "standard.tsv"
    standard.write_text("dog\ta pet\ncat\ta pet\nwood\tmaterial\n",
                        encoding="utf-8")
    gold = directory / "gold.csv"
    gold.write_text(GOLD_CSV, encoding="utf-8")
    return slang, standard, gold


def write_bias_inputs(directory):
    """A random 3-d vector table covering a small set of bias lexicons and
    two names of each gender."""
    tokens = ["he", "she", "him", "her", "doctor", "nurse", "slut", "muslim",
              "christian", "terrorist", "evil", "anna", "bella", "carl", "dave"]
    rng = np.random.default_rng(0)
    vectors = directory / "v.txt"
    vectors.write_text(f"{len(tokens)} 3\n" + "".join(
        f"{t} {' '.join(f'{x:.6f}' for x in rng.normal(size=3))}\n"
        for t in tokens), encoding="utf-8")
    lexicons = directory / "lex"
    lexicons.mkdir()
    for name, text in (("prejudice_terms", "slut\n"),
                       ("religious_terms", "muslim\nchristian\n"),
                       ("trait_terms", "terrorist\nevil\n"),
                       ("occupations", "doctor\nnurse\n"),
                       ("gender_pairs", "he,she\nhim,her\n")):
        (lexicons / f"{name}.txt").write_text(text, encoding="utf-8")
    names = directory / "names.csv"
    names.write_text("anna,female\nbella,female\ncarl,male\ndave,male\n",
                     encoding="utf-8")
    return vectors, lexicons, names


def read_report(path):
    """Rows of a report CSV, skipping provenance comment lines."""
    lines = [line for line in path.read_text(encoding="utf-8").splitlines()
             if not line.startswith("#")]
    return list(csv.DictReader(lines))


class TestExitCodes:
    def test_version_exits_zero(self, runner):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0
        assert "slanglex" in result.output

    def test_missing_input_file_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, [
            "ingest", "--slang", str(tmp_path / "absent.jsonl"),
            "--out", str(tmp_path / "out.jsonl")])
        assert result.exit_code == 2

    def test_bad_data_is_runtime_error(self, runner, tmp_path):
        bad = tmp_path / "gold.csv"
        bad.write_text("ok,Blend\nbad,Acronym\n", encoding="utf-8")
        result = runner.invoke(main, [
            "classes", "train", "--gold", str(bad),
            "--out", str(tmp_path / "model.npz")])
        assert result.exit_code == 1
        assert f"{bad}:2: " in result.output

    @pytest.mark.parametrize("line, message", [
        (b'{"headword": "a", "subjects": 5}\n',
         "subjects must be a list of strings"),
        (b'{"headword": "caf\xe9"}\n', "not UTF-8 text"),
    ])
    def test_malformed_lexicon_line_is_runtime_error(self, runner, tmp_path,
                                                     line, message):
        slang = tmp_path / "slang.jsonl"
        slang.write_bytes(line)
        result = runner.invoke(main, [
            "ingest", "--slang", str(slang), "--out", str(tmp_path / "out.jsonl")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert f"{slang}:1: {message}" in result.output

    @pytest.mark.parametrize("content, message", [
        (b"x", "not an npz archive"),
        (b"not a zip archive\n", "not an npz archive"),
        (None, "missing array 'kind'"),
    ])
    def test_unreadable_model_is_runtime_error(self, runner, tmp_path,
                                               content, message):
        model = tmp_path / "model.npz"
        if content is None:
            _, _, gold = write_inputs(tmp_path)
            runner.invoke(main, ["classes", "train", "--gold", str(gold),
                                 "--out", str(model)])
            with np.load(model) as data:
                arrays = {name: data[name] for name in data.files if name != "kind"}
            np.savez(model, **arrays)
        else:
            model.write_bytes(content)
        result = runner.invoke(main, [
            "classes", "predict", "--model", str(model), "--words", "lol",
            "--delta", "0.5"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert f"{model}: {message}" in result.output

    def test_non_utf8_vector_table_names_the_line(self, runner, tmp_path):
        vectors = tmp_path / "vectors.txt"
        vectors.write_bytes(b"2 2\nhe 0.1 0.2\ncaf\xe9 0.3 0.4\n")
        lexicons = files("slanglex").joinpath("data", "fixtures", "lexicons")
        result = runner.invoke(main, [
            "bias", "gender", "--vectors", str(vectors),
            "--lexicons", str(lexicons), "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert f"{vectors}:3: not UTF-8 text" in result.output

    def test_pipeline_error_names_the_file(self, runner, tmp_path):
        # of the several inputs a pipeline reads, the error says which
        lexicons = tmp_path / "lexicons"
        shutil.copytree(files("slanglex").joinpath("data", "fixtures", "lexicons"),
                        lexicons)
        (lexicons / "gender_pairs.txt").write_text("he,she\nhe she\n",
                                                   encoding="utf-8")
        result = runner.invoke(main, [
            "pipeline", "--fixtures", "--lexicons", str(lexicons),
            "--out", str(tmp_path / "run")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert (f"{lexicons / 'gender_pairs.txt'}:2: expected male,female"
                in result.output)

    @pytest.mark.parametrize("text, problem", [
        ("", "is empty"), ("# none yet\n", "is empty"),
        ("nurse\nhe\nNurse\n", "has duplicates")])
    def test_bad_bias_lexicon_names_the_file(self, runner, tmp_path, text,
                                             problem):
        lexicons = tmp_path / "lexicons"
        shutil.copytree(files("slanglex").joinpath("data", "fixtures", "lexicons"),
                        lexicons)
        (lexicons / "occupations.txt").write_text(text, encoding="utf-8")
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("2 2\nhe 0.1 0.2\nshe 0.3 0.4\n", encoding="utf-8")
        result = runner.invoke(main, [
            "bias", "gender", "--vectors", str(vectors),
            "--lexicons", str(lexicons), "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert result.output == (f"Error: {lexicons / 'occupations.txt'}: "
                                 f"bias lexicon occupations {problem}\n")

    def test_unstorable_classifier_feature_is_runtime_error(self, runner,
                                                            tmp_path):
        # every word holds U+0000, so the unigram '\x00' is a feature
        gold = tmp_path / "gold.csv"
        gold.write_text("".join(f"{a}\x00{b},{label}\n"
                                for a, b in ("ab", "bc", "cd", "de")
                                for label in ("Blend", "Clipping")),
                        encoding="utf-8")
        model = tmp_path / "model.npz"
        result = runner.invoke(main, ["classes", "train", "--gold", str(gold),
                                      "--out", str(model)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert "feature '\\x00' ends in U+0000" in result.output
        assert not model.exists()

    def test_maxprob_delta_range_enforced(self, runner, tmp_path):
        stub = tmp_path / "model.npz"
        stub.write_text("placeholder", encoding="utf-8")
        result = runner.invoke(main, [
            "classes", "predict", "--model", str(stub), "--words", "lol",
            "--delta", "2.0", "--score", "maxprob"])
        assert result.exit_code == 2
        assert "MaxProb delta must be within [0, 1]" in result.output

    def test_negentropy_delta_sign_enforced(self, runner, tmp_path):
        stub = tmp_path / "model.npz"
        stub.write_text("placeholder", encoding="utf-8")
        result = runner.invoke(main, [
            "classes", "predict", "--model", str(stub), "--words", "lol",
            "--delta", "0.4", "--score", "negentropy"])
        assert result.exit_code == 2
        assert "NegEntropy delta must be <= 0" in result.output

    def test_predict_needs_exactly_one_word_source(self, runner, tmp_path):
        stub = tmp_path / "model.npz"
        stub.write_text("placeholder", encoding="utf-8")
        wordfile = tmp_path / "words.txt"
        wordfile.write_text("lol\n", encoding="utf-8")
        both = runner.invoke(main, [
            "classes", "predict", "--model", str(stub), "--words", "lol",
            "--in", str(wordfile), "--delta", "0.5"])
        neither = runner.invoke(main, [
            "classes", "predict", "--model", str(stub), "--delta", "0.5"])
        assert both.exit_code == 2
        assert neither.exit_code == 2

    def test_pipeline_without_inputs_or_fixtures(self, runner, tmp_path):
        result = runner.invoke(main, ["pipeline", "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert "--fixtures" in result.output


class TestRefusedSettings:
    """A setting outside its domain ends in an error naming it (exit 1, no
    traceback) before any report or model is written."""

    @pytest.fixture
    def commands(self, tmp_path):
        slang, standard, gold = write_inputs(tmp_path)
        vectors, lexicons, names = write_bias_inputs(tmp_path)
        out = tmp_path / "out"
        bias = ["--vectors", str(vectors), "--lexicons", str(lexicons),
                "--out", str(out)]
        train = ["classes", "train", "--gold", str(gold),
                 "--out", str(out / "model.npz")]
        embed = ["embed", "--slang", str(slang),
                 "--out", str(out / "vectors.txt")]
        pipeline = ["pipeline", "--fixtures", "--out", str(out)]
        return {
            "smoothing": ["phonology", "--slang", str(slang), "--standard",
                          str(standard), "--out", str(out)],
            "n-perms": ["bias", "sexprej", *bias, "--names", str(names)],
            "strictness": ["bias", "gender", *bias],
            "max-epochs": train, "l2": train, "tol": train,
            "max-iters": ["morphology", "--slang", str(slang), "--standard",
                          str(standard), "--out", str(out)],
            "affix-k": ["morphology", "--slang", str(slang), "--standard",
                        str(standard), "--out", str(out)],
            "suffix-k": ["classes", "patterns", "--gold", str(gold),
                         "--out", str(out)],
            "subsample": embed, "lr": embed,
            "dimension": pipeline, "k": pipeline,
        }

    @pytest.mark.parametrize("flag, value, message", [
        ("smoothing", "0", "smoothing must be finite and > 0, got 0.0"),
        ("smoothing", "-0.01", "smoothing must be finite and > 0, got -0.01"),
        ("smoothing", "nan", "smoothing must be finite and > 0, got nan"),
        ("smoothing", "inf", "smoothing must be finite and > 0, got inf"),
        ("n-perms", "0", "number of permutations must be at least 1, got 0"),
        ("n-perms", "-5", "number of permutations must be at least 1, got -5"),
        ("strictness", "-1", "strictness c must be >= 0, got -1.0"),
        ("strictness", "nan", "strictness c must be >= 0, got nan"),
        ("max-epochs", "-3", "max_epochs must be >= 0, got -3"),
        ("l2", "-1", "l2 must be >= 0, got -1.0"),
        ("l2", "nan", "l2 must be >= 0, got nan"),
        ("tol", "-1", "tol must be >= 0, got -1.0"),
        ("tol", "nan", "tol must be >= 0, got nan"),
        ("max-iters", "-1", "max_iters must be >= 0, got -1"),
        ("affix-k", "0", "k must be at least 1, got 0"),
        ("suffix-k", "0", "k must be at least 1, got 0"),
        ("subsample", "nan", "subsample_threshold must not be nan"),
        ("lr", "inf", "initial_lr must be finite and > 0, got inf"),
        ("lr", "nan", "initial_lr must be finite and > 0, got nan"),
        ("dimension", "0", "dimension must be >= 1, got 0"),
        ("k", "0", "k must be at least 1, got 0"),
    ])
    def test_setting_refused(self, runner, tmp_path, commands, flag, value,
                             message):
        result = runner.invoke(main, [*commands[flag], f"--{flag}", value])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert f"Error: {message}\n" in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, value", [
        ("smoothing", "0.5"), ("n-perms", "1"), ("strictness", "0"),
        ("max-epochs", "0"), ("l2", "0"), ("tol", "0"), ("max-iters", "0")])
    def test_boundary_accepted(self, runner, commands, flag, value):
        result = runner.invoke(main, [*commands[flag], f"--{flag}", value])
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("command", ["embed", "pipeline"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed_is_a_usage_error(self, runner, tmp_path, command,
                                            source):
        slang, _, _ = write_inputs(tmp_path)
        out = tmp_path / "out"
        args = {"embed": ["embed", "--slang", str(slang), "--out", str(out / "v.txt")],
                "pipeline": ["pipeline", "--fixtures", "--out", str(out)]}[command]
        if source == "flag":
            args += ["--seed", "-1"]
        else:
            config = tmp_path / "run.cfg"
            config.write_text(f"{command}.seed = -1\n", encoding="utf-8")
            args = ["--config", str(config), *args]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "Invalid value for '--seed': -1 is not in the range x>=0." \
            in result.output
        assert not out.exists()


class TestIngest:
    def test_filter_matches_library(self, runner, tmp_path):
        from slanglex.corpus import filter_by_votes, load_slang_lexicon
        slang, _, _ = write_inputs(tmp_path)
        out = tmp_path / "kept.jsonl"
        result = runner.invoke(main, [
            "ingest", "--slang", str(slang), "--min-votes", "120",
            "--out", str(out)])
        assert result.exit_code == 0
        kept = load_slang_lexicon(out)
        expected = filter_by_votes(load_slang_lexicon(slang), 120)
        assert kept == expected
        assert "kept=3" in result.output  # woody 170, zorp... by hand: 170,120,50,305


class TestPhonology:
    def test_report_matches_library(self, runner, tmp_path):
        from slanglex.corpus import load_slang_lexicon, load_standard_lexicon
        from slanglex.phonology import (
            load_bundled_fallback_rules,
            load_bundled_pronouncing_table,
            odds_ratio_ranking,
            phoneme_distribution,
            to_phonemes,
        )
        slang, standard, _ = write_inputs(tmp_path)
        out = tmp_path / "phon"
        result = runner.invoke(main, [
            "phonology", "--slang", str(slang), "--standard", str(standard),
            "--out", str(out)])
        assert result.exit_code == 0

        rows = read_report(out / "phoneme_odds.csv")
        table = load_bundled_pronouncing_table()
        rules = load_bundled_fallback_rules()
        slang_seqs = [to_phonemes(e.headword, table, rules)
                      for e in load_slang_lexicon(slang)]
        std_words = sorted(load_standard_lexicon(standard))
        std_seqs = [to_phonemes(w, table, rules) for w in std_words]
        expected = odds_ratio_ranking(phoneme_distribution(slang_seqs),
                                      phoneme_distribution(std_seqs))
        assert [r["phoneme"] for r in rows] == \
            [e.symbol for e in expected]
        for row, entry in zip(rows, expected):
            assert row["odds_ratio"] == f"{entry.ratio:.6f}"

    def test_headword_without_letters_is_skipped(self, runner, tmp_path):
        """A headword G2P cannot convert is left out of phonology, and the
        pipeline runs every stage."""
        fixtures = files("slanglex").joinpath("data", "fixtures")
        slang = tmp_path / "slang.jsonl"
        slang.write_text(
            fixtures.joinpath("slang.jsonl").read_text(encoding="utf-8")
            + json.dumps({"headword": "420", "definitions": ["weed"],
                          "examples": ["blaze it 420 style"], "upvotes": 900,
                          "downvotes": 10, "subjects": ["Drugs"]}) + "\n",
            encoding="utf-8")
        out = tmp_path / "run"
        result = runner.invoke(main, ["pipeline", "--fixtures", "--slang",
                                      str(slang), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "slang_skipped=1 standard_skipped=0" in result.output
        assert "summary pipeline.bias.religion" in result.output

    def test_manner_positions_file_written(self, runner, tmp_path):
        slang, standard, _ = write_inputs(tmp_path)
        out = tmp_path / "phon"
        runner.invoke(main, ["phonology", "--slang", str(slang),
                             "--standard", str(standard), "--out", str(out)])
        rows = read_report(out / "manner_positions.csv")
        assert {r["position"] for r in rows} == {"first", "final"}
        for corpus in ("slang", "standard"):
            for position in ("first", "final"):
                total = sum(float(r["share"]) for r in rows
                            if r["corpus"] == corpus and r["position"] == position)
                assert total == pytest.approx(1.0, abs=1e-5)


class TestMorphology:
    def test_saved_segmenter_matches_library(self, runner, tmp_path):
        from slanglex.corpus import load_slang_lexicon
        from slanglex.morphology import letters, load_segmenter, train_segmenter
        slang, standard, _ = write_inputs(tmp_path)
        out = tmp_path / "morph"
        result = runner.invoke(main, [
            "morphology", "--slang", str(slang), "--standard", str(standard),
            "--out", str(out), "--seed", "3"])
        assert result.exit_code == 0
        words = sorted({letters(e.headword)
                        for e in load_slang_lexicon(slang)})
        expected = train_segmenter(words, seed=3)
        saved = load_segmenter(out / "segmenter_slang.tsv")
        assert saved.morph_counts == expected.morph_counts

    def test_segmentations_concatenate(self, runner, tmp_path):
        slang, standard, _ = write_inputs(tmp_path)
        out = tmp_path / "morph"
        runner.invoke(main, ["morphology", "--slang", str(slang),
                             "--standard", str(standard), "--out", str(out)])
        for line in (out / "segmentations_slang.tsv").read_text(
                encoding="utf-8").splitlines():
            if line.startswith("#"):
                continue
            word, analysis = line.split("\t")
            assert "".join(analysis.split("+")) == word


# feature kind, whether --segmenter is given, and the usage error
SEGMENTER_MISMATCHES = [
    ("char", True, "--segmenter applies only to morph features, not char"),
    ("morph", False, "morph features require --segmenter")]


class TestClasses:
    def train(self, runner, tmp_path, gold):
        model_path = tmp_path / "model.npz"
        result = runner.invoke(main, [
            "classes", "train", "--gold", str(gold), "--out", str(model_path),
            "--max-epochs", "80", "--cap", "120", "--seed", "0"])
        assert result.exit_code == 0, result.output
        return model_path

    def test_train_reports_stop_reason(self, runner, tmp_path):
        _, _, gold = write_inputs(tmp_path)
        for flags, stop in (([], "stop=tol iterations="),
                            (["--max-epochs", "0"], "stop=max_iter iterations=0")):
            result = runner.invoke(main, [
                "classes", "train", "--gold", str(gold),
                "--out", str(tmp_path / "m.npz"), *flags])
            assert result.exit_code == 0, result.output
            assert stop in result.output

    def test_pipeline_fits_reach_tolerance(self, runner, tmp_path, monkeypatch):
        # every fit of the fixture pipeline converges; none is cut by the cap
        import slanglex.cli as cli
        models = []
        train_logreg = cli.train_logreg

        def recording(*args, **kwargs):
            models.append(train_logreg(*args, **kwargs))
            return models[-1]

        monkeypatch.setattr(cli, "train_logreg", recording)
        result = runner.invoke(main, ["pipeline", "--fixtures", "--seed", "7",
                                      "--out", str(tmp_path / "run")])
        assert result.exit_code == 0, result.output
        assert len(models) == 6  # char, morph, four crossclass folds
        assert [m.stop for m in models] == ["tol"] * 6

    def test_predictions_match_library(self, runner, tmp_path):
        from slanglex.slangclass.logreg import load_classifier, predict_proba
        _, _, gold = write_inputs(tmp_path)
        model_path = self.train(runner, tmp_path, gold)
        out = tmp_path / "preds.csv"
        words = "w.a.c,aoo-aoo,blenao,clia"
        result = runner.invoke(main, [
            "classes", "predict", "--model", str(model_path),
            "--words", words, "--delta", "0.1", "--out", str(out)])
        assert result.exit_code == 0, result.output
        rows = read_report(out)
        model = load_classifier(model_path)
        for row in rows:
            dist = predict_proba(model, row["word"])
            for cls, p in dist.items():
                assert row[f"p_{cls}"] == f"{p:.6f}"
            assert sum(dist.values()) == pytest.approx(1.0)

    def test_stdout_rows_are_quoted_csv(self, runner, tmp_path):
        _, _, gold = write_inputs(tmp_path)
        model_path = self.train(runner, tmp_path, gold)
        words = ["a,b", 'say "hi"', "clia"]
        in_path = tmp_path / "words.txt"
        in_path.write_text("\n".join(words) + "\n", encoding="utf-8")
        result = runner.invoke(main, [
            "classes", "predict", "--model", str(model_path),
            "--in", str(in_path), "--delta", "0.1"])
        assert result.exit_code == 0, result.output
        lines = [line for line in result.output.splitlines()
                 if not line.startswith("summary ")]
        rows = list(csv.reader(lines))
        assert rows[0][:3] == ["word", "prediction", "score"]
        assert all(len(row) == 7 for row in rows)
        assert [row[0] for row in rows[1:]] == words

    def test_each_word_scored_once(self, runner, tmp_path, monkeypatch):
        import slanglex.cli as cli
        _, _, gold = write_inputs(tmp_path)
        model_path = self.train(runner, tmp_path, gold)
        scored = []
        predict_proba_batch = cli.predict_proba_batch

        def counting(model, words, segmenter=None):
            scored.extend(words)
            return predict_proba_batch(model, words, segmenter)

        monkeypatch.setattr(cli, "predict_proba_batch", counting)
        result = runner.invoke(main, [
            "classes", "predict", "--model", str(model_path),
            "--words", "w.a.c,aoo-aoo,clia", "--delta", "0.1"])
        assert result.exit_code == 0, result.output
        assert scored == ["w.a.c", "aoo-aoo", "clia"]

    @pytest.mark.parametrize("features, segmenter, message",
                             SEGMENTER_MISMATCHES)
    def test_train_segmenter_must_match_features(self, runner, tmp_path,
                                                 features, segmenter, message):
        _, _, gold = write_inputs(tmp_path)
        seg = tmp_path / "seg.tsv"
        seg.write_text("b\t2\nbr\t1\n", encoding="utf-8")
        result = runner.invoke(main, [
            "classes", "train", "--gold", str(gold), "--features", features,
            *(["--segmenter", str(seg)] if segmenter else []),
            "--out", str(tmp_path / "m.npz")])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not (tmp_path / "m.npz").exists()

    @pytest.mark.parametrize("features, segmenter, message",
                             SEGMENTER_MISMATCHES)
    def test_predict_segmenter_must_match_model(self, runner, tmp_path,
                                                monkeypatch, features,
                                                segmenter, message):
        import slanglex.cli as cli
        _, _, gold = write_inputs(tmp_path)
        seg = tmp_path / "seg.tsv"
        seg.write_text("b\t2\nbr\t1\n", encoding="utf-8")
        model_path = tmp_path / "m.npz"
        result = runner.invoke(main, [
            "classes", "train", "--gold", str(gold), "--features", features,
            *(["--segmenter", str(seg)] if features == "morph" else []),
            "--out", str(model_path)])
        assert result.exit_code == 0, result.output
        monkeypatch.setattr(cli, "predict_proba_batch", None)  # no scoring
        result = runner.invoke(main, [
            "classes", "predict", "--model", str(model_path), "--words", "lol",
            "--delta", "0.5", *(["--segmenter", str(seg)] if segmenter else [])])
        assert result.exit_code == 2, result.output
        assert message in result.output

    def test_delta_one_rejects_all(self, runner, tmp_path):
        _, _, gold = write_inputs(tmp_path)
        model_path = self.train(runner, tmp_path, gold)
        result = runner.invoke(main, [
            "classes", "predict", "--model", str(model_path),
            "--words", "w.a.c,clia", "--delta", "1.0"])
        assert result.exit_code == 0
        assert "rejected=2" in result.output

    def test_eval_reports_per_fold_f1(self, runner, tmp_path):
        _, _, gold = write_inputs(tmp_path)
        out = tmp_path / "folds.csv"
        result = runner.invoke(main, [
            "classes", "eval", "--gold", str(gold), "--delta", "0.5",
            "--max-epochs", "60", "--out", str(out)])
        assert result.exit_code == 0, result.output
        rows = read_report(out)
        assert [r["held_class"] for r in rows] == [
            "Alphabetism", "Blend", "Clipping", "Reduplicative"]
        for row in rows:
            assert 0.0 <= float(row["weighted_f1"]) <= 1.0

    def test_patterns_reports(self, runner, tmp_path):
        gold = tmp_path / "patterns_gold.csv"
        gold.write_text(
            "nigg,Clipping,nigger\n"
            "roach,Clipping,cockroach\n"
            "slowmo,Clipping,slow;motion\n"
            "boo-boo,Reduplicative\n"
            "flip-flop,Reduplicative\n"
            "sextini,Blend,sex;martini\n"
            "smog,Blend,smoke;fog\n",
            encoding="utf-8")
        out = tmp_path / "pat"
        result = runner.invoke(main, [
            "classes", "patterns", "--gold", str(gold), "--out", str(out)])
        assert result.exit_code == 0, result.output
        clip = {r["word"]: r["type"] for r in read_report(out / "clipping_types.csv")}
        assert clip == {"nigg": "Back", "roach": "Fore", "slowmo": "Compound"}
        redup = {r["word"]: r["type"]
                 for r in read_report(out / "reduplicative_types.csv")}
        assert redup == {"boo-boo": "DUP", "flip-flop": "EX_VOW"}
        subs = read_report(out / "substitutions.csv")
        assert {(r["original"], r["replacement"]) for r in subs} == {("i", "o")}
        blend_rows = read_report(out / "blend_suffixes.csv")
        assert {r["suffix"] for r in blend_rows} == {"tini", "og"}

    def test_patterns_leading_separator(self, runner, tmp_path):
        gold = tmp_path / "patterns_gold.csv"
        gold.write_text("-boo-boo,Reduplicative\n"
                        "flip-flop,Reduplicative\n"
                        "smog,Blend,smoke;fog\n", encoding="utf-8")
        out = tmp_path / "pat"
        result = runner.invoke(main, [
            "classes", "patterns", "--gold", str(gold), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "Traceback" not in result.output
        redup = {r["word"]: r["type"]
                 for r in read_report(out / "reduplicative_types.csv")}
        assert redup == {"-boo-boo": "DUP", "flip-flop": "EX_VOW"}

    def test_patterns_reduplicative_not_a_pair(self, runner, tmp_path):
        gold = tmp_path / "patterns_gold.csv"
        gold.write_text("no-no-no,Reduplicative,\n"
                        "flip-flop,Reduplicative\n"
                        "artsy-fartsy,Reduplicative\n"
                        "smog,Blend,smoke;fog\n", encoding="utf-8")
        out = tmp_path / "pat"
        result = runner.invoke(main, [
            "classes", "patterns", "--gold", str(gold), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert ("reduplicatives=3 reduplicatives_unpaired=1 "
                "substitution_pairs_skipped=1") in result.output
        redup = {r["word"]: r["type"]
                 for r in read_report(out / "reduplicative_types.csv")}
        assert redup == {"flip-flop": "EX_VOW", "artsy-fartsy": "UNK"}
        subs = read_report(out / "substitutions.csv")
        assert {(r["original"], r["replacement"]) for r in subs} == {("i", "o")}


    def test_patterns_blends_without_components(self, runner, tmp_path):
        # GOLD_CSV's blends carry no components: the class is counted as
        # skipped and its report left out, as substitutions.csv is
        _, _, gold = write_inputs(tmp_path)
        out = tmp_path / "pat"
        result = runner.invoke(main, [
            "classes", "patterns", "--gold", str(gold), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "blends=8 blends_skipped=8" in result.output
        assert not (out / "blend_suffixes.csv").exists()
        assert {r["type"] for r in read_report(out / "reduplicative_types.csv")} \
            == {"DUP"}

class TestBiasSexprej:
    def test_quoted_name_parsed_once(self, runner, tmp_path):
        vectors = tmp_path / "v.txt"
        vectors.write_text("6 2\nslut 1.0 0.0\nanna 2.0 0.0\nbella 0.5 0.0\n"
                           "smith,_john 0.0 1.0\ncarl 0.0 3.0\ndave 1.0 1.0\n",
                           encoding="utf-8")
        names = tmp_path / "names.csv"
        names.write_text('anna,female\nbella,female\n"smith, john",male\n'
                         "carl,male\ndave,male\n", encoding="utf-8")
        lexicons = files("slanglex").joinpath("data", "fixtures", "lexicons")
        out = tmp_path / "bias"
        result = runner.invoke(main, [
            "bias", "sexprej", "--vectors", str(vectors),
            "--lexicons", str(lexicons), "--names", str(names),
            "--out", str(out)])
        assert result.exit_code == 0, result.output
        rows = read_report(out / "name_sexprej.csv")
        assert [(r["name"], r["gender"]) for r in rows] == [
            ("anna", "female"), ("bella", "female"), ("smith, john", "male"),
            ("carl", "male"), ("dave", "male")]
        assert "male_n=3" in result.output
        assert "excluded_unknown=0" in result.output


class TestBiasMultiwordTerms:
    def test_multiword_terms_match_joined_tokens(self, runner, tmp_path):
        import numpy as np
        tokens = ["he", "she", "holy_roller", "church_lady", "slut",
                  "muslim", "christian", "terrorist", "evil", "doctor",
                  "nurse", "anna", "bella", "carl", "dave"]
        rng = np.random.default_rng(0)
        vectors = tmp_path / "v.txt"
        vectors.write_text(f"{len(tokens)} 3\n" + "".join(
            f"{t} {' '.join(f'{x:.6f}' for x in rng.normal(size=3))}\n"
            for t in tokens), encoding="utf-8")
        lexicons = tmp_path / "lex"
        lexicons.mkdir()
        for name, text in (("prejudice_terms", "holy roller\nslut\n"),
                           ("religious_terms", "holy roller\nmuslim\nchristian\n"),
                           ("trait_terms", "terrorist\nevil\n"),
                           ("occupations", "doctor\nnurse\n"),
                           ("gender_pairs", "he,she\nholy roller,church lady\n")):
            (lexicons / f"{name}.txt").write_text(text, encoding="utf-8")
        names = tmp_path / "names.csv"
        names.write_text("anna,female\nbella,female\ncarl,male\ndave,male\n",
                         encoding="utf-8")
        common = ["--vectors", str(vectors), "--lexicons", str(lexicons),
                  "--out", str(tmp_path / "out")]
        gender = runner.invoke(main, ["bias", "gender", *common])
        assert gender.exit_code == 0, gender.output
        assert "pairs_used=2 pairs_missing=0" in gender.output
        sexprej = runner.invoke(main, ["bias", "sexprej", *common,
                                       "--names", str(names)])
        assert sexprej.exit_code == 0, sexprej.output
        assert "terms_present=2 terms_missing=0" in sexprej.output
        religion = runner.invoke(main, ["bias", "religion", *common])
        assert religion.exit_code == 0, religion.output
        assert "religions=3" in religion.output
        assert "missing_religions=0" in religion.output
        rows = read_report(tmp_path / "out" / "religious_bias_raw.csv")
        assert [r["religion"] for r in rows] == [
            "holy roller", "muslim", "christian"]


class TestEmbedDeterminism:
    def embed_args(self, slang, out, seed):
        return ["embed", "--slang", str(slang), "--out", str(out),
                "--dimension", "4", "--window", "2", "--negatives", "2",
                "--epochs", "2", "--min-count", "1", "--subsample", "0",
                "--seed", str(seed)]

    def test_same_seed_same_bytes(self, runner, tmp_path):
        slang, _, _ = write_inputs(tmp_path)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert runner.invoke(main, self.embed_args(slang, a, 7)).exit_code == 0
        assert runner.invoke(main, self.embed_args(slang, b, 7)).exit_code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_different_vectors(self, runner, tmp_path):
        slang, _, _ = write_inputs(tmp_path)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        runner.invoke(main, self.embed_args(slang, a, 7))
        runner.invoke(main, self.embed_args(slang, b, 8))
        assert a.read_bytes() != b.read_bytes()


class TestProvenance:
    def test_headers_carry_digests_not_timestamps(self, runner, tmp_path):
        from slanglex.reports import file_digest
        slang, standard, _ = write_inputs(tmp_path)
        out = tmp_path / "phon"
        runner.invoke(main, ["phonology", "--slang", str(slang),
                             "--standard", str(standard), "--out", str(out)])
        header = [line for line in
                  (out / "phoneme_odds.csv").read_text(encoding="utf-8").splitlines()
                  if line.startswith("#")]
        assert header[0].startswith("# slanglex ")
        joined = "\n".join(header)
        assert f"sha256:{file_digest(slang)}" in joined
        assert f"sha256:{file_digest(standard)}" in joined
        # rerunning must reproduce the header exactly (no clocks involved)
        out2 = tmp_path / "phon2"
        runner.invoke(main, ["phonology", "--slang", str(slang),
                             "--standard", str(standard), "--out", str(out2)])
        header2 = [line for line in
                   (out2 / "phoneme_odds.csv").read_text(encoding="utf-8").splitlines()
                   if line.startswith("#")]
        assert header == header2


class TestConfigFile:
    def test_config_sets_defaults_and_flags_override(self, runner, tmp_path):
        slang, _, _ = write_inputs(tmp_path)
        cfg = tmp_path / "slanglex.cfg"
        cfg.write_text("ingest.min-votes = 120\n", encoding="utf-8")

        from_config = runner.invoke(main, [
            "--config", str(cfg), "ingest", "--slang", str(slang),
            "--out", str(tmp_path / "a.jsonl")])
        assert from_config.exit_code == 0, from_config.output
        assert "min_votes=120" in from_config.output

        flag_wins = runner.invoke(main, [
            "--config", str(cfg), "ingest", "--slang", str(slang),
            "--min-votes", "60", "--out", str(tmp_path / "b.jsonl")])
        assert flag_wins.exit_code == 0
        assert "min_votes=60" in flag_wins.output

    def test_nested_keys_reach_subcommands(self, runner, tmp_path):
        _, _, gold = write_inputs(tmp_path)
        cfg = tmp_path / "slanglex.cfg"
        cfg.write_text("classes.train.max-epochs = 2\n", encoding="utf-8")
        result = runner.invoke(main, [
            "--config", str(cfg), "classes", "train", "--gold", str(gold),
            "--out", str(tmp_path / "m.npz")])
        assert result.exit_code == 0, result.output

    def test_misspelt_key_rejected(self, runner, tmp_path):
        slang, _, _ = write_inputs(tmp_path)
        cfg = tmp_path / "typo.cfg"
        for key in ("embed.dimenson", "seed", "embedd.dimension",
                    "classes.seed", "classes.train", "embed.dimension.x"):
            cfg.write_text(f"embed.dimension = 7\n{key} = 7\n",
                           encoding="utf-8")
            result = runner.invoke(main, [
                "--config", str(cfg), "embed", "--slang", str(slang),
                "--out", str(tmp_path / "v.txt")])
            assert result.exit_code == 2, key
            assert f"{cfg}:2: unknown config key '{key}'" in result.output
            assert not (tmp_path / "v.txt").exists()

    def test_documented_example_keys_load(self, runner, tmp_path):
        slang, _, gold = write_inputs(tmp_path)
        cfg = tmp_path / "slanglex.cfg"
        cfg.write_text(
            f"embed.slang_path = {slang}\nclasses.train.kind = char\n"
            "embed.min-count = 1\nembed.epochs = 1\nembed.dimension = 7\n"
            "bias.gender.lexicons_dir = lex\npipeline.epochs = 4\n",
            encoding="utf-8")
        result = runner.invoke(main, [
            "--config", str(cfg), "embed", "--out", str(tmp_path / "v.txt")])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "v.txt").read_text(
            encoding="utf-8").split("\n", 1)[0].endswith(" 7")
        result = runner.invoke(main, [
            "--config", str(cfg), "classes", "train", "--gold", str(gold),
            "--max-epochs", "2", "--out", str(tmp_path / "m.npz")])
        assert result.exit_code == 0, result.output

    def test_malformed_config_rejected(self, runner, tmp_path):
        slang, _, _ = write_inputs(tmp_path)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just some words\n", encoding="utf-8")
        result = runner.invoke(main, [
            "--config", str(cfg), "ingest", "--slang", str(slang),
            "--out", str(tmp_path / "x.jsonl")])
        assert result.exit_code == 2

    def test_non_utf8_config_rejected(self, runner, tmp_path):
        slang, _, _ = write_inputs(tmp_path)
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"ingest.min-votes = 1\n# caf\xe9\n")
        result = runner.invoke(main, [
            "--config", str(cfg), "ingest", "--slang", str(slang),
            "--out", str(tmp_path / "x.jsonl")])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert f"{cfg}:2: not UTF-8 text" in result.output

    def test_embed_vote_filter_removed(self, runner, tmp_path):
        # ingest --min-votes is the one vote filter
        slang, _, _ = write_inputs(tmp_path)
        cfg = tmp_path / "votes.cfg"
        cfg.write_text("ingest.min_votes = 1\nembed.min_votes = 1\n",
                       encoding="utf-8")
        out = ["--out", str(tmp_path / "v.txt")]
        result = runner.invoke(main, ["--config", str(cfg), "embed", "--slang",
                                      str(slang), *out])
        assert result.exit_code == 2
        assert f"{cfg}:2: unknown config key 'embed.min_votes'" in result.output
        result = runner.invoke(main, ["embed", "--slang", str(slang),
                                      "--min-votes", "1", *out])
        assert result.exit_code == 2
        assert "No such option '--min-votes'" in result.output
        assert not (tmp_path / "v.txt").exists()

    def test_classifier_learning_rate_removed(self, runner, tmp_path):
        # L-BFGS takes unit first steps, so classes train has no --lr;
        # embed keeps its own
        _, _, gold = write_inputs(tmp_path)
        cfg = tmp_path / "lr.cfg"
        cfg.write_text("embed.lr = 0.05\nclasses.train.lr = 1\n", encoding="utf-8")
        result = runner.invoke(main, [
            "--config", str(cfg), "classes", "train", "--gold", str(gold),
            "--out", str(tmp_path / "m.npz")])
        assert result.exit_code == 2
        assert f"{cfg}:2: unknown config key 'classes.train.lr'" in result.output
        result = runner.invoke(main, [
            "classes", "train", "--gold", str(gold), "--lr", "1",
            "--out", str(tmp_path / "m.npz")])
        assert result.exit_code == 2
        assert "No such option '--lr'" in result.output

    def test_knn_metric_removed(self, runner, tmp_path):
        # the subject KNN is cosine only
        slang, _, _ = write_inputs(tmp_path)
        vectors, _, _ = write_bias_inputs(tmp_path)
        cfg = tmp_path / "metric.cfg"
        cfg.write_text("subjects.k = 3\nsubjects.metric_name = cosine\n",
                       encoding="utf-8")
        args = ["subjects", "--slang", str(slang), "--vectors", str(vectors),
                "--out", str(tmp_path / "subjects")]
        result = runner.invoke(main, ["--config", str(cfg), *args])
        assert result.exit_code == 2
        assert (f"{cfg}:2: unknown config key 'subjects.metric_name'"
                in result.output)
        result = runner.invoke(main, [*args, "--metric", "cosine"])
        assert result.exit_code == 2
        assert "No such option '--metric'" in result.output
        assert not (tmp_path / "subjects").exists()


class TestOptionTable:
    def test_every_option_belongs_to_a_command(self):
        # an entry that no command registers, such as a leftover option of
        # a deleted setting, is dead; entries are matched by their flags,
        # parameter name, required and flag-ness
        def shape(option):
            return (tuple(option.opts), option.name, option.required,
                    option.is_flag)

        def options(command):
            if isinstance(command, click.Group):
                for sub in command.commands.values():
                    yield from options(sub)
            else:
                yield from (p for p in command.params
                            if isinstance(p, click.Option))

        registered = {shape(option) for option in options(main)}
        for key, (decls, attrs) in OPTIONS.items():
            assert shape(click.Option(list(decls), **attrs)) in registered, key
