"""Line-oriented input formats: the rules every loader shares through
`read_records` (blank lines, comments, errors naming file and line),
strict slang-lexicon field types, save/load round trips, and the loader's
verdict on odd vector tables."""
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from slanglex import embeddings, social
from slanglex.corpus import (
    LexiconEntry,
    entry_to_dict,
    load_gold_classes,
    load_slang_lexicon,
    load_standard_lexicon,
    read_records,
    save_slang_lexicon,
)
from slanglex.embeddings import EmbeddingTable, load_embeddings, save_embeddings
from slanglex.errors import SchemaError
from slanglex.labels import SlangClass, SubjectLabel
from slanglex.morphology import (
    SegmenterModel,
    load_segmenter,
    morph_code_length,
    save_segmenter,
)
from slanglex.phonology import FallbackRules, PronouncingTable
from slanglex.slangclass.features import FeatureVocabulary, NgramKind
from slanglex.slangclass.logreg import ClassifierModel, load_classifier, save_classifier
from slanglex.social import GenderLexicon, load_bias_lexicons

BIAS_FILES = {
    "prejudice_terms.txt": "whore\n",
    "religious_terms.txt": "muslim\n",
    "trait_terms.txt": "evil\n",
    "occupations.txt": "nurse\n",
    "gender_pairs.txt": "he,she\n",
}


def bias_lexicon(name, attribute):
    """Loader of one bias lexicon file, read with the other four valid."""
    def load(path):
        for other, text in BIAS_FILES.items():
            if other != name:
                (path.parent / other).write_text(text, encoding="utf-8")
        return getattr(load_bias_lexicons(path.parent), attribute)
    return name, load


def vector_rows(path):
    table = load_embeddings(path)
    return dict(zip(table.tokens, table.matrix.tolist()))


# (file name, loader) -> the records it loaded, comment marker (None: the
# format has none), two good lines and what they load to, and a bad line
# (None: every non-blank line is a record)
LINE_FORMATS = [
    pytest.param(
        ("lex.jsonl", lambda p: [e.headword for e in load_slang_lexicon(p)]),
        None, ['{"headword": "a"}', '{"headword": "b"}'], ["a", "b"],
        '{"headword": 5}', id="slang"),
    pytest.param(
        ("std.tsv", lambda p: sorted(load_standard_lexicon(p))),
        "#", ["dog\ta pet", "cat"], ["cat", "dog"], "dog\ta\tb", id="standard"),
    pytest.param(
        ("gold.csv", lambda p: [r.word for r in load_gold_classes(p)]),
        "#", ["brunch,Blend,breakfast;lunch", "lol,Alphabetism"],
        ["brunch", "lol"], "fave,Clipping,favorite,extra", id="gold"),
    pytest.param(
        ("dict.txt", lambda p: [
            list(PronouncingTable.from_file(p).lookup(w))
            for w in ("dog", "cat")]),
        ";;;", ["DOG  D AO1 G", "CAT  K AE1 T"],
        [["D", "AO", "G"], ["K", "AE", "T"]], "JUSTAWORD", id="pronouncing"),
    pytest.param(
        ("rules.tsv", lambda p: list(FallbackRules.from_file(p).apply("ab"))),
        "#", ["a\tAH", "b\tB"], ["AH", "B"], "a AH", id="fallback"),
    pytest.param(
        ("seg.tsv", lambda p: load_segmenter(p).morph_counts),
        None, ["dog\t3", "cat\t2"], {"dog": 3, "cat": 2}, "dog\tmany",
        id="segmenter"),
    pytest.param(
        ("names.csv", lambda p: GenderLexicon.from_csv(p).names),
        "#", ['"smith, john",male', "Anna,female"], ("smith, john", "Anna"),
        "Anna,woman", id="names"),
    pytest.param(
        bias_lexicon("occupations.txt", "occupations"),
        "#", ["Doctor", "holy roller"], ("doctor", "holy roller"), None,
        id="terms"),
    pytest.param(
        bias_lexicon("gender_pairs.txt", "gender_pairs"),
        "#", ["he,she", "Man\tWoman"], (("he", "she"), ("man", "woman")),
        "he she", id="gender-pairs"),
    pytest.param(
        ("vectors.txt", vector_rows), None, ["1 2", "a 0.5 -1"],
        {"a": [0.5, -1.0]}, "b 0.5 oops", id="vectors"),
]


class TestLineFormats:
    @pytest.mark.parametrize("loader, comment, good, loaded, bad", LINE_FORMATS)
    def test_blank_and_comment_lines_skipped(self, tmp_path, loader, comment,
                                             good, loaded, bad):
        name, load = loader
        skipped = ["", "   ", "\t"]
        if comment is not None:
            skipped += [f"{comment} a comment", f"   {comment} an indented comment"]
        lines = skipped[:2] + good[:1] + skipped[2:] + good[1:] + [""]
        (tmp_path / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert load(tmp_path / name) == loaded

    @pytest.mark.parametrize("loader, comment, good, loaded, bad",
                             [p for p in LINE_FORMATS if p.values[-1] is not None])
    def test_error_names_its_line(self, tmp_path, loader, comment, good,
                                  loaded, bad):
        name, load = loader
        lines = ["", good[0], "  "]
        if comment is not None:
            lines.append(f"{comment} a comment")
        lines += [good[1], bad, good[0]]
        (tmp_path / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(SchemaError) as err:
            load(tmp_path / name)
        assert err.value.line == lines.index(bad) + 1
        assert str(err.value).startswith(
            f"{tmp_path / name}:{lines.index(bad) + 1}: ")

    def test_comments_are_records_where_the_format_has_none(self, tmp_path):
        path = tmp_path / "seg.tsv"
        path.write_text("#tag\t2\ndog\t1\n", encoding="utf-8")
        assert load_segmenter(path).morph_counts == {"#tag": 2, "dog": 1}
        path.write_text('{"headword": "a"}\n# not JSON\n', encoding="utf-8")
        with pytest.raises(SchemaError) as err:
            load_slang_lexicon(path)
        assert err.value.line == 2

    def test_line_that_is_not_utf8_is_named(self, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_bytes(b"lol,Alphabetism\ncaf\xe9,Clipping\n")
        with pytest.raises(SchemaError) as err:
            load_gold_classes(path)
        assert err.value.line == 2
        assert "UTF-8" in str(err.value)

    def test_error_shape(self):
        assert str(SchemaError("bad", line=3, path="d/f.txt")) == "d/f.txt:3: bad"
        assert str(SchemaError("bad", path="d/f.txt")) == "d/f.txt: bad"
        assert str(SchemaError("bad", field="x")) == "bad"

    def test_parse_sees_only_the_line_ending_stripped(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_bytes(b"  a\t \r\nb \n")
        assert read_records(path, repr, comment=None) == ["'  a\\t '", "'b '"]


def has_declared_types(entry: LexiconEntry) -> bool:
    def strings(values):
        return all(isinstance(v, str) for v in values)
    return (isinstance(entry.headword, str) and strings(entry.definitions)
            and strings(entry.examples)
            and type(entry.upvotes) is int and type(entry.downvotes) is int
            and (entry.year_added is None or type(entry.year_added) is int)
            and (entry.subjects is None
                 or all(isinstance(s, SubjectLabel) for s in entry.subjects)))


class TestSlangFieldTypes:
    @pytest.mark.parametrize("field, value", [
        ("headword", 5),
        ("definitions", "abc"),
        ("definitions", None),
        ("definitions", [["nested"]]),
        ("examples", "abc"),
        ("examples", [1, 2]),
        ("upvotes", True),
        ("downvotes", False),
        ("subjects", 5),
        ("year_added", "2004"),
        ("year_added", 2004.0),
    ])
    def test_wrong_type_names_line_and_field(self, tmp_path, field, value):
        path = tmp_path / "lex.jsonl"
        path.write_text('{"headword": "ok"}\n'
                        + json.dumps({"headword": "a", field: value}) + "\n",
                        encoding="utf-8")
        with pytest.raises(SchemaError) as err:
            load_slang_lexicon(path)
        assert (err.value.line, err.value.field) == (2, field)

    def test_null_subjects_and_year_are_absent(self, tmp_path):
        path = tmp_path / "lex.jsonl"
        path.write_text('{"headword": "a", "subjects": null, "year_added": null}\n',
                        encoding="utf-8")
        assert load_slang_lexicon(path) == [LexiconEntry("a")]

    FIELDS = ["headword", "definitions", "examples", "upvotes", "downvotes",
              "subjects", "year_added"]
    JSON_VALUES = st.recursive(
        st.none() | st.booleans() | st.integers()
        | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6)
        | st.lists(st.sampled_from([s.value for s in SubjectLabel]), max_size=3),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=8)

    @pytest.mark.parametrize("field", FIELDS)
    @settings(max_examples=100)
    @given(value=JSON_VALUES)
    @example(value=True)
    @example(value="abc")
    @example(value=[1, 2])
    @example(value=5)
    def test_any_json_value_loads_or_names_its_field(self, tmp_path_factory,
                                                     field, value):
        path = tmp_path_factory.getbasetemp() / f"{field}.jsonl"
        path.write_text(json.dumps({"headword": "a", field: value}) + "\n",
                        encoding="utf-8")
        try:
            (entry,) = load_slang_lexicon(path)
        except SchemaError as exc:
            assert (exc.line, exc.field) == (1, field)
        else:  # loaded as written, with the types SCHEMA.md declares
            if field != "subjects" and value is not None:
                assert entry_to_dict(entry)[field] == value
            assert has_declared_types(entry)


# Text as UTF-8 files hold it: any characters but lone surrogates.
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=10)
ENTRIES = st.builds(
    LexiconEntry,
    headword=TEXT.filter(str.strip),
    definitions=st.lists(TEXT, max_size=3).map(tuple),
    examples=st.lists(TEXT.filter(bool), max_size=3).map(tuple),
    upvotes=st.integers(0, 10**9),
    downvotes=st.integers(0, 10**9),
    subjects=st.none() | st.frozensets(st.sampled_from(SubjectLabel)),
    year_added=st.none() | st.integers(-10**6, 10**6),
)
# A morph is one TSV field: no tab and no line break.
MORPHS = st.text(st.characters(blacklist_categories=("Cs",),
                               blacklist_characters="\t\n\r"),
                 min_size=1, max_size=8)
# Features as n-gram extraction makes them: non-empty; numpy's string
# arrays drop trailing NULs.
FEATURES = st.text(st.characters(blacklist_categories=("Cs",),
                                 blacklist_characters="\x00"),
                   min_size=1, max_size=6)
# Tokens as build_usage_corpus makes them.
TOKENS = st.from_regex(r"[a-z0-9_]+(?:'[a-z0-9_]+)*", fullmatch=True)


class TestRoundTrips:
    @settings(max_examples=80)
    @given(entries=st.lists(ENTRIES, max_size=4))
    def test_slang_lexicon_exact(self, tmp_path_factory, entries):
        path = tmp_path_factory.getbasetemp() / "roundtrip.jsonl"
        save_slang_lexicon(entries, path)
        assert load_slang_lexicon(path) == entries

    @settings(max_examples=80)
    @given(counts=st.dictionaries(MORPHS, st.integers(1, 10**9), min_size=1,
                                  max_size=12))
    def test_segmenter_exact(self, tmp_path_factory, counts):
        alphabet = frozenset(ch for morph in counts for ch in morph)
        model = SegmenterModel(counts, alphabet,
                               morph_code_length(counts, len(alphabet)))
        path = tmp_path_factory.getbasetemp() / "roundtrip.tsv"
        save_segmenter(model, path)
        loaded = load_segmenter(path)
        assert loaded.morph_counts == counts
        assert loaded.alphabet == alphabet
        # recomputed from the counts in file order, as saved: sorted by morph
        assert loaded.total_code_length == morph_code_length(
            dict(sorted(counts.items())), len(alphabet))

    @settings(max_examples=60)
    @given(tokens=st.lists(TOKENS, min_size=1, max_size=6, unique=True),
           dim=st.integers(1, 4), data=st.data())
    def test_vectors_to_six_decimals(self, tmp_path_factory, tokens, dim, data):
        matrix = data.draw(arrays(np.float64, (len(tokens), dim),
                                  elements=st.floats(-1e3, 1e3)))
        path = tmp_path_factory.getbasetemp() / "roundtrip.txt"
        save_embeddings(EmbeddingTable(tokens, matrix), path)
        loaded = load_embeddings(path)
        assert loaded.tokens == tuple(tokens)
        assert np.array_equal(loaded.matrix,
                              [[float(f"{x:.6f}") for x in row] for row in matrix])
        assert np.abs(loaded.matrix - matrix).max() <= 5e-7 + 1e-12

    @settings(max_examples=60)
    @given(classes=st.lists(st.sampled_from(SlangClass), min_size=2, unique=True),
           features=st.lists(FEATURES, max_size=6, unique=True),
           kind=st.sampled_from(NgramKind), n_range=st.tuples(
               st.integers(1, 5), st.integers(0, 4)).map(lambda t: (t[0], t[0] + t[1])),
           regularization=st.floats(0, 1e6), data=st.data())
    def test_classifier_exact(self, tmp_path_factory, classes, features, kind,
                              n_range, regularization, data):
        weights = data.draw(arrays(np.float64, (len(classes), len(features) + 1),
                                   elements=st.floats(-1e6, 1e6)))
        vocab = FeatureVocabulary(kind, *n_range, tuple(features))
        model = ClassifierModel(vocab, tuple(classes), weights, regularization,
                                stop="tol", iterations=3)
        path = tmp_path_factory.getbasetemp() / "roundtrip.npz"
        save_classifier(model, path)
        loaded = load_classifier(path)
        assert loaded.vocab == vocab
        assert loaded.classes == model.classes
        assert np.array_equal(loaded.weights, weights)
        assert loaded.regularization == regularization
        # how the fit ended is not part of the file
        assert (loaded.stop, loaded.iterations) == (None, None)


# Odd vector tables and the line parser's verdict on each: the tokens and
# rows of a table that loads, or the error text after the file's name.
# float() takes underscores and non-ASCII digits; it refuses hex, the
# ASCII separators \x1c-\x1f and a line break inside a value.
ODD_VECTOR_TABLES = [
    (b"2 2\na 1_0 2\nb 1 2\n", (("a", "b"), [[10.0, 2.0], [1.0, 2.0]])),
    ("1 1\na \u0661\n".encode("utf-8"), (("a",), [[1.0]])),
    (b"1 1\na 0x10\n", ":2: non-numeric vector value"),
    (b"1 2\na 1\x1c 2\n", ":2: non-numeric vector value"),
    (b"1 2\na 1\r5 2\n", ":2: non-numeric vector value"),
    (b"1 2\na 1  2\n", ":2: expected token plus 2 values"),
    (b"2 1\na 1\n\xff 2\n", ":3: not UTF-8 text: invalid start byte"),
    (b"x 1\na 1\n", ":1: expected '<vocab> <dim>' header"),
    (b"2 1\na 1\n", ": header declared 2 tokens, file has 1"),
    (b"1 1\na\n", ":2: expected token plus 1 values"),
    (b"2 1\na 1\na 2\n", ": duplicate tokens in embedding table"),
    (b"1 2\na nan 1\n", ": embedding matrix contains non-finite values"),
    (b"0 3\n", ((), np.empty((0, 3)))),
]


@pytest.mark.parametrize("data, verdict", ODD_VECTOR_TABLES)
def test_odd_vector_table_verdict(tmp_path, data, verdict):
    path = tmp_path / "vectors.txt"
    path.write_bytes(data)
    if isinstance(verdict, str):
        with pytest.raises(SchemaError) as error:
            load_embeddings(path)
        assert str(error.value) == f"{path}{verdict}"
    else:
        table = load_embeddings(path)
        tokens, rows = verdict
        expected = np.array(rows, dtype=np.float64)
        assert table.tokens == tokens
        assert table.matrix.shape == expected.shape
        assert table.matrix.tobytes() == expected.tobytes()


def test_subject_token_defined_once():
    assert social.subject_token is embeddings.subject_token
    assert embeddings.subject_token("  Holy  Roller ") == "holy_roller"
