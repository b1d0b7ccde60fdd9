"""The per-run store: a command run parses each input once, and no stage,
later run or later subcommand gets an object derived from a file that has
changed since."""
import collections
import hashlib
import shutil
from importlib.resources import files
from pathlib import Path

import pytest
from click.testing import CliRunner

import slanglex.cli as cli
from slanglex import embeddings, store
from slanglex.cli import main
from slanglex.corpus import load_gold_classes
from slanglex.morphology import SegmenterModel
from slanglex.reports import DIGEST_CHARS, file_digest
from slanglex.slangclass.features import NgramKind, NgramTable
from slanglex.slangclass.logreg import load_classifier

FIXTURES = Path(str(files("slanglex").joinpath("data", "fixtures")))
LOADERS = ("load_slang_lexicon", "load_standard_lexicon", "load_gold_classes",
           "load_embeddings", "load_bias_lexicons")


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    result = runner.invoke(main, [str(a) for a in args])
    assert result.exit_code == 0, result.output
    return result


def assert_no_store():
    """Outside a run nothing is kept: each call makes a fresh object."""
    assert store.load(list, "probe") is not store.load(list, "probe")


def reports(directory: Path) -> dict:
    return {p.relative_to(directory): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


class TestStore:
    def test_loads_once_per_path_inside_a_block(self, tmp_path):
        calls = []

        def loader(path):
            calls.append(path)
            return [path]

        path = tmp_path / "a.txt"
        assert store.load(loader, path) is not store.load(loader, path)
        with store.sharing():
            first = store.load(loader, path)
            assert store.load(loader, tmp_path / "." / "a.txt") is first
            store.forget(path)
            assert store.load(loader, path) is not first
        assert store.load(loader, path) is not first
        assert len(calls) == 5

    def test_key_is_path_fn_and_args_and_forget_drops_derived(self, tmp_path):
        def derived(path, n):
            return [path, n]

        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        with store.sharing():
            first = store.load(derived, a, 1)
            assert store.load(derived, a, 1) is first
            assert store.load(derived, a, 2) == [a, 2]
            assert store.load(lambda path, n: [path, n], a, 1) is not first
            other = store.load(derived, b, 1)
            store.forget(a)
            assert store.load(derived, a, 1) is not first
            assert store.load(derived, b, 1) is other
        assert_no_store()

    def test_digest_is_kept_until_forgotten(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_bytes(b"one")
        with store.sharing():
            first = file_digest(path)
            path.write_bytes(b"two")
            assert file_digest(path) == first
            store.forget(path)
            assert file_digest(path) == \
                hashlib.sha256(b"two").hexdigest()[:DIGEST_CHARS]

    def test_block_ends_on_error(self, tmp_path):
        with pytest.raises(RuntimeError):
            with store.sharing():
                store.load(lambda path: object(), tmp_path)
                raise RuntimeError
        assert_no_store()


class TestSharedTables:
    def test_table_is_shared_only_when_it_holds_the_fit(self, tmp_path):
        # char fits on another gold file get that file's table, and morph
        # fits a table of their own: each model equals the one fitted
        # outside a run
        other = tmp_path / "other.csv"
        other.write_text("".join(
            f"{word}x,{rest}\n" for word, rest in (
                line.split(",", 1) for line in (FIXTURES / "gold_classes.csv")
                .read_text(encoding="utf-8").splitlines()
                if line and not line.startswith("#"))), encoding="utf-8")
        segmenters = [SegmenterModel({m: 2 for m in morphs}, frozenset("abc"), 0.0)
                      for morphs in (("ab", "ing"), ("er", "s", "ab"))]
        fits = [(FIXTURES / "gold_classes.csv", NgramKind.CHAR, None),
                (other, NgramKind.CHAR, None),
                *((other, NgramKind.MORPHEME, seg) for seg in segmenters)]

        def weights(directory):
            for i, (gold, kind, segmenter) in enumerate(fits):
                cli.run_classes_train(gold, directory / f"{i}.npz", kind,
                                      segmenter, 7, 0.1, **cli.FIT)
            return [load_classifier(directory / f"{i}.npz").weights.tobytes()
                    for i in range(len(fits))]

        alone = weights(tmp_path / "alone")
        with store.sharing():
            assert weights(tmp_path / "run") == alone

    def test_forget_gold_rebuilds_the_char_table(self, tmp_path):
        gold = tmp_path / "gold.csv"
        shutil.copy(FIXTURES / "gold_classes.csv", gold)
        with store.sharing():
            first = store.load(cli._char_table, gold, 1, 5)
            assert store.load(cli._char_table, gold, 1, 5) is first
            lines = gold.read_text(encoding="utf-8").splitlines()
            gold.write_text("\n".join(lines[::2]) + "\n", encoding="utf-8")
            store.forget(gold)
            table = store.load(cli._char_table, gold, 1, 5)
        words = [r.word for r in load_gold_classes(gold)]
        fresh = NgramTable(words, NgramKind.CHAR, 1, 5)
        assert table is not first and len(table.grams) < len(first.grams)
        assert table.grams == fresh.grams
        assert table.vocabulary(words, 200) == fresh.vocabulary(words, 200)


class TestPipelineLoads:
    def test_each_input_is_parsed_once(self, runner, tmp_path, monkeypatch):
        calls = collections.Counter()
        for name in LOADERS:
            def counting(path, loader=getattr(cli, name), name=name):
                calls[name, Path(path).resolve()] += 1
                return loader(path)
            monkeypatch.setattr(cli, name, counting)
        out = tmp_path / "run"
        invoke(runner, "pipeline", "--fixtures", "--seed", 7, "--out", out)
        assert calls == {
            ("load_slang_lexicon", (FIXTURES / "slang.jsonl").resolve()): 1,
            ("load_slang_lexicon", (out / "filtered.jsonl").resolve()): 1,
            ("load_standard_lexicon", (FIXTURES / "standard.tsv").resolve()): 1,
            ("load_gold_classes", (FIXTURES / "gold_classes.csv").resolve()): 1,
            ("load_embeddings", (out / "vectors.txt").resolve()): 1,
            ("load_bias_lexicons", (FIXTURES / "lexicons").resolve()): 1,
        }

    def test_each_input_is_hashed_once(self, runner, tmp_path, monkeypatch):
        # one digest per file serves the vector cache and the provenance
        # headers, so both modules must call the same function
        calls = collections.Counter()

        def counting(path, digest=store.sha256_hex):
            calls[Path(path).resolve()] += 1
            return digest(path)
        monkeypatch.setattr(embeddings, "sha256_hex", counting)
        monkeypatch.setattr("slanglex.reports.sha256_hex", counting)
        out = tmp_path / "run"
        invoke(runner, "pipeline", "--fixtures", "--seed", 7, "--out", out)
        assert calls == {path.resolve(): 1 for path in (
            out / "filtered.jsonl", FIXTURES / "standard.tsv",
            FIXTURES / "gold_classes.csv", out / "vectors.txt",
            FIXTURES / "names_gender.csv")}

    def test_input_the_run_overwrites_is_read_again(self, runner, tmp_path):
        # --slang <out>/filtered.jsonl: ingest reads the file, then rewrites
        # it with fewer entries, which every later stage must see
        run, other = tmp_path / "run", tmp_path / "other"
        run.mkdir()
        shutil.copy(FIXTURES / "slang.jsonl", run / "filtered.jsonl")
        shutil.copy(FIXTURES / "slang.jsonl", tmp_path / "slang.jsonl")
        for slang, out in ((run / "filtered.jsonl", run),
                           (tmp_path / "slang.jsonl", other)):
            invoke(runner, "pipeline", "--fixtures", "--slang", slang,
                   "--seed", 7, "--out", out)
        assert (run / "filtered.jsonl").read_bytes() != \
            (FIXTURES / "slang.jsonl").read_bytes()
        assert reports(run) == reports(other)

    def test_later_subcommand_reads_rewritten_vectors(self, runner, tmp_path):
        out = tmp_path / "run"
        invoke(runner, "pipeline", "--fixtures", "--seed", 7, "--out", out)
        vectors = out / "vectors.txt"
        invoke(runner, "embed", "--slang", out / "filtered.jsonl", "--out", vectors,
               "--min-count", 2, "--epochs", 8, "--seed", 8)
        shutil.copy(vectors, tmp_path / "copy.txt")
        lexicons = FIXTURES / "lexicons"
        for table, dest in ((vectors, tmp_path / "a"),
                            (tmp_path / "copy.txt", tmp_path / "b")):
            invoke(runner, "subjects", "--slang", out / "filtered.jsonl",
                   "--vectors", table, "--out", dest, "--seed", 7)
            invoke(runner, "bias", "religion", "--vectors", table,
                   "--lexicons", lexicons, "--out", dest)
        assert reports(tmp_path / "a") == reports(tmp_path / "b")
        name = "religious_bias_raw.csv"
        assert (tmp_path / "a" / name).read_bytes() != (out / name).read_bytes()

    def test_failed_run_leaves_no_store(self, runner, tmp_path):
        lexicons = tmp_path / "lexicons"
        shutil.copytree(FIXTURES / "lexicons", lexicons)
        (lexicons / "gender_pairs.txt").write_text("he she\n", encoding="utf-8")
        gold = tmp_path / "gold.csv"
        shutil.copy(FIXTURES / "gold_classes.csv", gold)
        result = runner.invoke(main, [
            "pipeline", "--fixtures", "--gold", str(gold), "--lexicons",
            str(lexicons), "--seed", "7", "--out", str(tmp_path / "run")])
        assert result.exit_code == 1
        assert "pipeline.patterns" in result.output  # the gold was loaded
        # a later subcommand reads the gold file as it is now
        lines = gold.read_text(encoding="utf-8").splitlines()
        gold.write_text("\n".join(lines[::2]) + "\n", encoding="utf-8")
        shutil.copy(gold, tmp_path / "copy.csv")
        for path, dest in ((gold, tmp_path / "a"), (tmp_path / "copy.csv",
                                                    tmp_path / "b")):
            invoke(runner, "classes", "patterns", "--gold", path, "--out", dest)
        assert reports(tmp_path / "a") == reports(tmp_path / "b")
        assert_no_store()
