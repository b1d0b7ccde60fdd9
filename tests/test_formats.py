"""Line-oriented input formats: the rules every loader shares through
`read_records` (blank lines, comments, errors naming file and line),
strict slang-lexicon field types, save/load round trips, and the vector
table's bulk parse against its line parser."""
import json
from unittest import mock

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
            [s.symbol for s in PronouncingTable.from_file(p).lookup(w)]
            for w in ("dog", "cat")]),
        ";;;", ["DOG  D AO1 G", "CAT  K AE1 T"],
        [["D", "AO", "G"], ["K", "AE", "T"]], "JUSTAWORD", id="pronouncing"),
    pytest.param(
        ("rules.tsv", lambda p: [
            s.symbol for s in FallbackRules.from_file(p).apply("ab")]),
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
        save_embeddings(EmbeddingTable(tokens, matrix, {t: 1 for t in tokens}), path)
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


# Vector values as tables hold them, and near misses: values float() takes
# and numpy's converter refuses (underscores, non-ASCII digits), values
# both take or both refuse, an empty field, inner whitespace and line
# breaks, and the ASCII separators \x1c-\x1f, which numpy strips around a
# value as whitespace and float() refuses.
GOOD_VALUES = (st.floats(-1e3, 1e3).map(lambda x: f"{x:.6f}")
               | st.floats(allow_nan=False).map(repr))
ODD_VALUES = st.sampled_from([
    "1_0", "\u0661", "+1", "-2e3", "0x10", "nan", "inf", '"1"', "", "1\t",
    "\t1", "1\r5", "\r1", "1\x0b", "\x0c1", "\x1c1", "1\x1f", "1\x00",
    "\xa01", "1\u2028", "1e400", ".5", "1e", "Infinity", "-NaN"])
VECTOR_TOKENS = st.text(alphabet="ab#\u00e9\u4e2d_'\t\x1d\x85", max_size=3)
SPACES = st.sampled_from(["", " ", "\t", " \r", "\x0b", "\x1e", "\u3000"])


@st.composite
def vector_tables(draw):
    """Bytes of a text vector table: well formed, or with one fault or a
    few near misses that the line parser and numpy might judge apart."""
    dim = draw(st.integers(1, 3))
    tokens = draw(st.lists(VECTOR_TOKENS, max_size=4))
    fault = draw(st.sampled_from([None, None, None, "count", "header",
                                  "width", "byte"]))
    vocab = len(tokens) + (draw(st.sampled_from([-1, 1])) if fault == "count"
                           else 0)
    header = (draw(st.sampled_from(["x 2", f"{vocab}", f"{vocab} {dim} 1",
                                    f"{vocab} 0", f"+{vocab} \u0661"]))
              if fault == "header" else f"{vocab} {dim}")
    values = GOOD_VALUES | ODD_VALUES if draw(st.booleans()) else GOOD_VALUES
    lines = [header]
    for token in tokens:
        width = dim + (draw(st.sampled_from([-1, 1])) if fault == "width"
                       else 0)
        row = [token, *draw(st.lists(values, min_size=width, max_size=width))]
        lines.append(" ".join(row) + draw(SPACES))
        lines.extend(draw(st.lists(st.sampled_from(["", "  ", "\t", "\r"]),
                                   max_size=1)))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    data = ending.join(lines).encode("utf-8") + draw(
        st.sampled_from([b"", ending.encode()]))
    if fault == "byte":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xe9"])) + data[at:]
    return data


def loaded_or_error(path):
    """A vector table's tokens, shape and matrix bytes, or its error text."""
    try:
        table = load_embeddings(path)
    except SchemaError as exc:
        return str(exc)
    return table.tokens, table.matrix.shape, table.matrix.tobytes()


class TestVectorTableParse:
    """`load_embeddings` converts a table in one numpy call and, where
    anything is off, leaves the verdict to the line parser."""

    @settings(max_examples=300)
    @given(data=vector_tables())
    @example(data=b"2 2\na 1_0 2\nb 1 2\n")
    @example(data="1 1\na \u0661\n".encode("utf-8"))
    @example(data=b"1 1\na 0x10\n")
    @example(data=b"1 2\na 1\x1c 2\n")
    @example(data=b"1 2\na 1\r5 2\n")
    @example(data=b"1 2\na 1  2\n")
    @example(data=b"2 1\na 1\n\xff 2\n")
    @example(data=b"x 1\na 1\n")
    @example(data=b"2 1\na 1\n")
    @example(data=b"1 1\na\n")
    @example(data=b"2 1\na 1\na 2\n")
    @example(data=b"1 2\na nan 1\n")
    @example(data=b"0 3\n")
    def test_bulk_parse_agrees_with_the_line_parser(self, tmp_path_factory,
                                                    data):
        path = tmp_path_factory.getbasetemp() / "vectors.txt"
        path.write_bytes(data)
        # with the cache off, so that the second load parses too
        with mock.patch.object(embeddings, "_read_cache", lambda path: None):
            with mock.patch.object(embeddings, "_parse_bulk",
                                   lambda path: None):
                by_lines = loaded_or_error(path)
            assert loaded_or_error(path) == by_lines

    def test_saved_table_skips_the_line_parser(self, tmp_path, monkeypatch):
        # a silent fallback would cost the bulk parse's speed and nothing else
        def line_parser(*args, **kwargs):
            raise AssertionError("the line parser read a well-formed table")
        monkeypatch.setattr(embeddings, "read_records", line_parser)
        tokens = ["he", "she", "holy_roller", "don't", "x1"]
        matrix = np.random.default_rng(0).normal(size=(len(tokens), 100))
        path = tmp_path / "vectors.txt"
        for rows in (tokens, []):
            saved = matrix[:len(rows)]
            save_embeddings(EmbeddingTable(rows, saved, {t: 1 for t in rows}),
                            path)
            loaded = load_embeddings(path)
            assert loaded.tokens == tuple(rows)
            assert np.array_equal(loaded.matrix, np.reshape(
                [float(f"{x:.6f}") for x in saved.flat], saved.shape))


def test_subject_token_defined_once():
    assert social.subject_token is embeddings.subject_token
    assert embeddings.subject_token("  Holy  Roller ") == "holy_roller"
