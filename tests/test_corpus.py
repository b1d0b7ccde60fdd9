"""Ingestion, vote filtering and stratified splitting."""
import json

import pytest

from slanglex.corpus import (
    GoldClassRecord,
    LexiconEntry,
    filter_by_votes,
    load_gold_classes,
    load_slang_lexicon,
    load_standard_lexicon,
    save_slang_lexicon,
    split_gold,
    stratified_split,
)
from slanglex.errors import AnalysisError, SchemaError
from slanglex.labels import SlangClass, SubjectLabel


def write_jsonl(path, objs):
    path.write_text("\n".join(json.dumps(o) for o in objs) + "\n",
                    encoding="utf-8")


class TestSlangIngestion:
    def test_roundtrip(self, tmp_path):
        entries = [
            LexiconEntry("woody", definitions=("an erection",),
                         examples=("he had a woody",), upvotes=120, downvotes=30,
                         subjects=frozenset({SubjectLabel.SEX}), year_added=2004),
            LexiconEntry("A.B.C.", upvotes=5),
        ]
        path = tmp_path / "lex.jsonl"
        save_slang_lexicon(entries, path)
        assert load_slang_lexicon(path) == entries

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "lex.jsonl"
        path.write_text('{"headword": "a", "upvotes": 1}\n\n\n'
                        '{"headword": "b"}\n', encoding="utf-8")
        assert [e.headword for e in load_slang_lexicon(path)] == ["a", "b"]

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "lex.jsonl"
        path.write_text('{"headword": "a"}\nnot json\n', encoding="utf-8")
        with pytest.raises(SchemaError) as err:
            load_slang_lexicon(path)
        assert err.value.line == 2

    def test_missing_headword_reports_field(self, tmp_path):
        path = tmp_path / "lex.jsonl"
        write_jsonl(path, [{"definitions": ["x"]}])
        with pytest.raises(SchemaError) as err:
            load_slang_lexicon(path)
        assert err.value.field == "headword"
        assert err.value.line == 1

    def test_negative_votes_rejected(self, tmp_path):
        path = tmp_path / "lex.jsonl"
        write_jsonl(path, [{"headword": "a", "upvotes": -1}])
        with pytest.raises(SchemaError):
            load_slang_lexicon(path)

    def test_non_integer_votes_rejected(self, tmp_path):
        path = tmp_path / "lex.jsonl"
        write_jsonl(path, [{"headword": "a", "upvotes": "12"}])
        with pytest.raises(SchemaError):
            load_slang_lexicon(path)

    def test_subjects_parsed(self, tmp_path):
        path = tmp_path / "lex.jsonl"
        write_jsonl(path, [{"headword": "a", "subjects": ["Drugs", "Music"]}])
        (entry,) = load_slang_lexicon(path)
        assert entry.subjects == frozenset({SubjectLabel.DRUGS, SubjectLabel.MUSIC})

    def test_unknown_subject_rejected(self, tmp_path):
        path = tmp_path / "lex.jsonl"
        write_jsonl(path, [{"headword": "a", "subjects": ["Gardening"]}])
        with pytest.raises(SchemaError):
            load_slang_lexicon(path)

    def test_headword_case_preserved_key_folded(self):
        entry = LexiconEntry("O.M.W")
        assert entry.headword == "O.M.W"
        assert entry.key == "o.m.w"


class TestStandardIngestion:
    def test_word_and_definition(self, tmp_path):
        path = tmp_path / "std.tsv"
        path.write_text("dog\ta domestic animal\ndog\tto follow\ncat\n",
                        encoding="utf-8")
        assert load_standard_lexicon(path) == frozenset({"dog", "cat"})

    def test_too_many_fields_rejected(self, tmp_path):
        path = tmp_path / "std.tsv"
        path.write_text("dog\ta\tb\n", encoding="utf-8")
        with pytest.raises(SchemaError) as err:
            load_standard_lexicon(path)
        assert err.value.line == 1


class TestVoteFilter:
    def test_threshold_is_inclusive(self):
        kept = LexiconEntry("a", upvotes=60, downvotes=40)     # total 100
        dropped = LexiconEntry("b", upvotes=60, downvotes=39)  # total 99
        assert filter_by_votes([kept, dropped], min_votes=100) == [kept]

    def test_order_preserved_and_idempotent(self):
        entries = [LexiconEntry(w, upvotes=v)
                   for w, v in [("a", 150), ("b", 20), ("c", 100), ("d", 99)]]
        once = filter_by_votes(entries, min_votes=100)
        assert [e.headword for e in once] == ["a", "c"]
        assert filter_by_votes(once, min_votes=100) == once

    def test_zero_threshold_keeps_all(self):
        entries = [LexiconEntry("a"), LexiconEntry("b", upvotes=1)]
        assert filter_by_votes(entries, min_votes=0) == entries

    def test_negative_threshold_rejected(self):
        with pytest.raises(AnalysisError):
            filter_by_votes([], min_votes=-1)


class TestStratifiedSplit:
    def records(self, sizes):
        out = []
        for label, n in sizes.items():
            out.extend(GoldClassRecord(f"{label}{i}", label) for i in range(n))
        return out

    def test_single_class_fraction(self):
        records = self.records({SlangClass.BLEND: 100})
        train, test = stratified_split(records, lambda r: r.label, 0.10, seed=0)
        assert len(test) == 10
        assert len(train) == 90

    def test_rounding_half_up(self):
        # 25 * 0.10 = 2.5 rounds to 3
        records = self.records({SlangClass.BLEND: 25})
        _, test = stratified_split(records, lambda r: r.label, 0.10, seed=0)
        assert len(test) == 3

    def test_minimum_one_per_class(self):
        # 4 * 0.10 = 0.4 would round to 0; floor is 1
        records = self.records({SlangClass.BLEND: 4})
        _, test = stratified_split(records, lambda r: r.label, 0.10, seed=0)
        assert len(test) == 1

    def test_per_class_counts(self):
        records = self.records({SlangClass.BLEND: 40, SlangClass.CLIPPING: 20})
        _, test = stratified_split(records, lambda r: r.label, 0.10, seed=3)
        by_label = {}
        for r in test:
            by_label[r.label] = by_label.get(r.label, 0) + 1
        assert by_label == {SlangClass.BLEND: 4, SlangClass.CLIPPING: 2}

    def test_partition_is_disjoint_and_exhaustive(self):
        records = self.records({SlangClass.BLEND: 30, SlangClass.CLIPPING: 11})
        train, test = stratified_split(records, lambda r: r.label, 0.20, seed=9)
        assert set(train).isdisjoint(test)
        assert sorted(r.word for r in train + test) == sorted(r.word for r in records)

    def test_deterministic_per_seed(self):
        records = self.records({SlangClass.BLEND: 50})
        first = stratified_split(records, lambda r: r.label, 0.10, seed=42)
        second = stratified_split(records, lambda r: r.label, 0.10, seed=42)
        assert first == second

    def test_seed_changes_selection(self):
        records = self.records({SlangClass.BLEND: 50})
        _, test_a = stratified_split(records, lambda r: r.label, 0.10, seed=0)
        _, test_b = stratified_split(records, lambda r: r.label, 0.10, seed=1)
        assert {r.word for r in test_a} != {r.word for r in test_b}

    def test_tiny_class_rejected(self):
        records = self.records({SlangClass.BLEND: 1})
        with pytest.raises(AnalysisError):
            stratified_split(records, lambda r: r.label, 0.10, seed=0)

    def test_bad_fraction_rejected(self):
        records = self.records({SlangClass.BLEND: 10})
        for fraction in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(AnalysisError):
                stratified_split(records, lambda r: r.label, fraction, seed=0)

    def test_split_gold_wrapper(self):
        records = self.records({SlangClass.BLEND: 20, SlangClass.CLIPPING: 20})
        split = split_gold(records, test_fraction=0.10, seed=7)
        assert split == split_gold(records, test_fraction=0.10, seed=7)
        assert len(split.test) == 4


class TestGoldClassCsv:
    def test_parse_with_components(self, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_text("# comment line\n"
                        "brunch,Blend,breakfast;lunch\n"
                        "fave,Clipping,favorite\n"
                        "lol,Alphabetism\n"
                        "boo-boo,Reduplicative,\n",
                        encoding="utf-8")
        records = load_gold_classes(path)
        assert records[0] == GoldClassRecord(
            "brunch", SlangClass.BLEND, ("breakfast", "lunch"))
        assert records[1].components == ("favorite",)
        assert records[2].components is None
        assert records[3].components is None

    def test_unknown_label_reports_line(self, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_text("ok,Blend\nbad,Acronym\n", encoding="utf-8")
        with pytest.raises(SchemaError) as err:
            load_gold_classes(path)
        assert err.value.line == 2

    def test_missing_label_rejected(self, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_text("justaword\n", encoding="utf-8")
        with pytest.raises(SchemaError):
            load_gold_classes(path)


class TestLabelParse:
    @pytest.mark.parametrize("enum_cls", [SlangClass, SubjectLabel])
    def test_every_member_ignoring_case_and_space(self, enum_cls):
        for member in enum_cls:
            for text in (member.value, member.value.upper(),
                         f"  {member.value.lower()}\t"):
                assert enum_cls.parse(text) is member

    @pytest.mark.parametrize("enum_cls, message, field", [
        (SlangClass, "unknown slang class 'Acronym'", "label"),
        (SubjectLabel, "unknown subject label 'Acronym'", "subjects")])
    def test_unknown_label(self, enum_cls, message, field):
        with pytest.raises(SchemaError, match=message) as info:
            enum_cls.parse("Acronym")
        assert info.value.field == field
