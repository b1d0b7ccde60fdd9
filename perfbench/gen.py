"""Seeded input generator for the slanglex benchmark.

Every input is built from the bundled fixtures under
``src/slanglex/data/fixtures`` of the checkout:

* ``slang.jsonl`` keeps all fixture entries verbatim (so the bias
  lexicons and names stay in the vocabulary) and adds synthetic entries.
  A synthetic headword is spliced from two fixture headwords; its subject
  follows the fixture subject mix and its usage examples are fixture
  examples of the same subject with the headword swapped in, so subject
  classification measures real structure.
* ``standard.tsv`` keeps the fixture words and adds affixed forms of them.
* ``gold.csv`` keeps the fixture records and adds words of the four
  formation classes built the way the fixture's own are.
* ``vectors.txt`` is a text vector table with one planted cluster per
  subject.

The same seed gives the same bytes. ``generate`` also returns the counts
the program's summaries must report for these inputs, computed here
independently of slanglex.
"""
from __future__ import annotations

import json
import random
import re
from pathlib import Path

MIN_VOTES = 100            # the pipeline's default vote filter
EMBED_MIN_COUNT = 2        # the pipeline's default skip-gram min count
TOKEN_RE = re.compile(r"[a-z0-9_]+(?:'[a-z0-9_]+)*")

PREFIXES = ("un", "re", "pre", "dis", "over", "under", "mis", "out")
SUFFIXES = ("s", "es", "ed", "ing", "er", "ers", "ly", "ness", "less",
            "ful", "able", "ish", "y", "ment")
VOWELS = "aeiou"
CONSONANTS = "bcdfghjklmnpqrstvwxz"


def fixture_dir(root: Path) -> Path:
    return Path(root) / "src" / "slanglex" / "data" / "fixtures"


def _rng(seed: int, part: str) -> random.Random:
    return random.Random(f"{seed}:{part}")


def _subject_key(obj: dict) -> tuple:
    return tuple(obj.get("subjects") or ())


def _tokens(text: str) -> list[str]:
    return TOKEN_RE.findall(text.lower())


def _load_fixture_slang(fixtures: Path) -> list[dict]:
    lines = (fixtures / "slang.jsonl").read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def _load_fixture_standard(fixtures: Path) -> list[tuple[str, str]]:
    rows = []
    for line in (fixtures / "standard.tsv").read_text(encoding="utf-8").splitlines():
        if line.strip():
            word, _, definition = line.partition("\t")
            rows.append((word, definition))
    return rows


def _load_fixture_gold(fixtures: Path) -> list[str]:
    return [line for line in
            (fixtures / "gold_classes.csv").read_text(encoding="utf-8").splitlines()
            if line.strip() and not line.startswith("#")]


def _lexicon_terms(fixtures: Path) -> set[str]:
    terms = set()
    for path in sorted((fixtures / "lexicons").glob("*.txt")):
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.strip() and not line.startswith("#"):
                terms.update(p.strip().lower() for p in re.split(r"[,\t]", line))
    for line in (fixtures / "names_gender.csv").read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            terms.add(line.split(",")[0].strip().lower())
    return terms


class _Splicer:
    """New lowercase words made from a prefix of one source word and a
    suffix of another, never repeating a word already taken."""

    def __init__(self, rng: random.Random, sources, taken: set[str]):
        self.rng = rng
        self.sources = sorted({w for w in sources if w.isalpha() and len(w) >= 3})
        self.taken = taken

    def word(self) -> str:
        while True:
            a, b = self.rng.choice(self.sources), self.rng.choice(self.sources)
            cand = a[:self.rng.randint(1, len(a) - 1)] + b[self.rng.randint(1, len(b) - 1):]
            if 4 <= len(cand) <= 10 and cand not in self.taken:
                self.taken.add(cand)
                return cand


def _with_headword(example: str, old: str, new: str,
                   rng: random.Random) -> str:
    pattern = re.compile(r"\b" + re.escape(old) + r"\b", re.IGNORECASE)
    if pattern.search(example):
        return pattern.sub(new, example)
    words = example.split()
    words.insert(rng.randint(0, len(words)), new)
    return " ".join(words)


def _slang(root: Path, seed: int, n_synthetic: int, examples_each: int,
           example_share: float, multiword_share: float,
           low_vote_share: float) -> list[dict]:
    """Fixture entries plus synthetic ones, in a seeded order."""
    fixtures = fixture_dir(root)
    fixture = _load_fixture_slang(fixtures)
    rng = _rng(seed, "slang")
    taken = {w for obj in fixture for ex in obj["examples"] for w in _tokens(ex)}
    taken |= {obj["headword"].lower() for obj in fixture}
    taken |= {w for w, _ in _load_fixture_standard(fixtures)}
    taken |= _lexicon_terms(fixtures)
    splicer = _Splicer(rng, [w for obj in fixture for w in obj["headword"].lower().split()],
                       taken)

    pool: dict[tuple, list[tuple[str, str]]] = {}
    for obj in fixture:
        for example in obj["examples"]:
            pool.setdefault(_subject_key(obj), []).append((obj["headword"], example))
    mix = [_subject_key(obj) for obj in fixture]

    n_multi = round(n_synthetic * multiword_share)
    n_low = round(n_synthetic * low_vote_share)
    n_with_examples = round(n_synthetic * example_share)
    entries = list(fixture)
    for i in range(n_synthetic):
        subject = rng.choice(mix)
        head = splicer.word()
        if i < n_multi:
            head = f"{head} {splicer.word()}"
        examples = []
        if i < n_with_examples:
            for _ in range(examples_each):
                old, example = rng.choice(pool[subject])
                examples.append(_with_headword(example, old, head, rng))
        total = (rng.randint(5, MIN_VOTES - 1) if i >= n_synthetic - n_low
                 else rng.randint(MIN_VOTES, 6000))
        up = rng.randint(total // 2, total)
        obj = {"headword": head, "definitions": [f"synthetic entry {i}"],
               "examples": examples, "upvotes": up, "downvotes": total - up}
        if subject:
            obj["subjects"] = list(subject)
        obj["year_added"] = rng.randint(1999, 2016)
        entries.append(obj)
    order = list(range(len(fixture), len(entries)))
    rng.shuffle(order)
    return entries[:len(fixture)] + [entries[i] for i in order]


def _write_slang(path: Path, entries: list[dict]) -> None:
    path.write_text("".join(json.dumps(obj, sort_keys=True) + "\n"
                            for obj in entries), encoding="utf-8")


def _standard(root: Path, seed: int, n_words: int) -> list[tuple[str, str]]:
    rows = _load_fixture_standard(fixture_dir(root))
    have = {w for w, _ in rows}
    stems = [(w, d) for w, d in rows if w.isalpha()]
    combos = [(p, s, d, q) for s, d in stems for p in ("",) + PREFIXES
              for q in ("",) + SUFFIXES if p or q]
    rng = _rng(seed, "standard")
    rng.shuffle(combos)
    for p, s, d, q in combos:
        if len(rows) >= n_words:
            break
        word = p + s + q
        if word not in have:
            have.add(word)
            rows.append((word, d))
    return rows


def _gold(rng: random.Random, lines: list[str], n_records: int,
          words) -> list[str]:
    """``lines`` plus synthetic gold records, cycling over the classes,
    until there are ``n_records``."""
    lines = list(lines)
    taken = {line.split(",")[0].lower() for line in lines}
    words = sorted({w for w in words if w.isalpha()})
    long_words = [w for w in words if len(w) >= 6]
    short_words = [w for w in words if 3 <= len(w) <= 7]

    def alphabetism():
        letters = "".join(rng.choice(CONSONANTS + VOWELS[:2]) for _ in range(rng.randint(2, 5)))
        return (".".join(letters.upper()), "") if rng.random() < 0.15 else (letters, "")

    def blend():
        a, b = rng.choice(words), rng.choice(long_words)
        return a[:rng.randint(2, max(2, len(a) - 1))] + b[rng.randint(1, len(b) - 3):], f"{a};{b}"

    def clipping():
        r = rng.random()
        if r < 0.1:
            a, b = rng.choice(short_words), rng.choice(short_words)
            return a[:rng.randint(2, len(a))] + b[:2], f"{a} {b}"
        src = rng.choice(long_words)
        if r < 0.25:
            return src[-rng.randint(3, len(src) - 2):], src
        return src[:rng.randint(3, len(src) - 2)], src

    def reduplicative():
        base = rng.choice(short_words)
        r = rng.random()
        if r < 0.1:
            return f"{base}-{base}", ""
        if r < 0.2:
            return f"{base}-schm{base[1:]}", ""
        if r < 0.5:
            i = next((k for k, ch in enumerate(base) if ch in VOWELS), 0)
            swapped = base[:i] + rng.choice([v for v in VOWELS if v != base[i]]) + base[i + 1:]
            return f"{base}-{swapped}", ""
        tail = base[1:] if base[0] not in VOWELS else base
        return f"{base}-{rng.choice('bdhlmnpw')}{tail}", ""

    makers = [("Alphabetism", alphabetism), ("Blend", blend),
              ("Clipping", clipping), ("Reduplicative", reduplicative)]
    i = 0
    while len(lines) < n_records:
        label, make = makers[i % len(makers)]
        word, components = make()
        if word.lower() not in taken:
            taken.add(word.lower())
            lines.append(f"{word},{label},{components}")
            i += 1
    return lines


def _vectors(path: Path, seed: int, entries: list[dict], extra: set[str],
             n_tokens: int, dimension: int, noise: float) -> int:
    """Vector table: subject-tagged tokens sit around their subject's
    centroid, every other token is random. Returns the row count."""
    import numpy as np

    rng = np.random.default_rng(_rng(seed, "vectors").getrandbits(63))
    subjects = sorted({s for obj in entries for s in obj.get("subjects") or ()})
    centroids = {s: c / np.linalg.norm(c)
                 for s, c in zip(subjects, rng.standard_normal((len(subjects), dimension)))}
    tokens: dict[str, str | None] = {}
    for obj in entries:
        token = "_".join(obj["headword"].strip().lower().split())
        tags = obj.get("subjects") or ()
        tokens[token] = tags[0] if len(tags) == 1 else None
    for term in sorted(extra):
        tokens.setdefault("_".join(term.split()), None)
    filler = 0
    while len(tokens) < n_tokens:
        tokens.setdefault(f"tok{filler}", None)
        filler += 1
    scale = noise / np.sqrt(dimension)
    matrix = rng.standard_normal((len(tokens), dimension)) * scale
    for row, subject in enumerate(tokens.values()):
        if subject is not None:
            matrix[row] += centroids[subject]
        else:
            matrix[row] *= 1.0 / noise
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{len(tokens)} {dimension}\n")
        for token, row in zip(tokens, matrix):
            handle.write(token + " " + " ".join(f"{x:.6f}" for x in row) + "\n")
    return len(tokens)


def _expected_vocab(kept: list[dict]) -> int:
    """Distinct example tokens seen at least EMBED_MIN_COUNT times, with
    multiword headwords joined by '_' (longest phrase first)."""
    phrases = sorted({" ".join(obj["headword"].lower().split()) for obj in kept
                      if len(obj["headword"].split()) > 1},
                     key=lambda p: (-len(p), p))
    patterns = [(re.compile(r"\b" + r"\s+".join(map(re.escape, p.split())) + r"\b"),
                 p.replace(" ", "_")) for p in phrases]
    counts: dict[str, int] = {}
    for obj in kept:
        for example in obj["examples"]:
            text = example.lower()
            for pattern, joined in patterns:
                text = pattern.sub(joined, text)
            for token in TOKEN_RE.findall(text):
                counts[token] = counts.get(token, 0) + 1
    return sum(1 for c in counts.values() if c >= EMBED_MIN_COUNT)


def _single_subject(entries: list[dict]) -> int:
    return sum(1 for obj in entries if len(obj.get("subjects") or ()) == 1)


def _class_counts(gold: list[str]) -> dict:
    labels = [line.split(",")[1] for line in gold]
    sourced = [line for line in gold
               if line.split(",")[1] == "Clipping" and line.split(",", 2)[2].strip()]
    return {"clippings": len(sourced), "reduplicatives": labels.count("Reduplicative"),
            "blends": labels.count("Blend")}


def generate(root, out_dir, seed: int, sizes: dict) -> dict:
    """Write the inputs one workload needs into ``out_dir``.

    ``sizes`` holds ``kind`` ("pipeline" or "vectors") and the counts for
    that kind. Returns ``{"entries": n, "expect": {stage: {field: value}}}``,
    the summary fields each stage must report on these inputs.
    """
    root, out = Path(root), Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fixtures = fixture_dir(root)
    entries = _slang(root, seed, sizes["synthetic_entries"],
                     sizes.get("examples_each", 0), sizes.get("example_share", 0.0),
                     sizes.get("multiword_share", 0.0), sizes.get("low_vote_share", 0.0))
    _write_slang(out / "slang.jsonl", entries)
    standard = _standard(root, seed, sizes["standard_words"])
    words = [w for w, _ in standard]
    gold = _gold(_rng(seed, "gold"), _load_fixture_gold(fixtures),
                 sizes["gold_records"], words)
    (out / "gold.csv").write_text("\n".join(gold) + "\n", encoding="utf-8")

    if sizes["kind"] == "pipeline":
        (out / "standard.tsv").write_text(
            "".join(f"{w}\t{d}\n" for w, d in standard), encoding="utf-8")
        kept = [obj for obj in entries if obj["upvotes"] + obj["downvotes"] >= MIN_VOTES]
        return {"entries": len(entries), "expect": {
            "ingest": {"read": len(entries), "kept": len(kept)},
            "phonology": {"slang_words": len(kept), "standard_words": len(standard)},
            "patterns": _class_counts(gold),
            "embed": {"entries": len(kept), "vocab": _expected_vocab(kept)},
            "subjects": {"labeled": _single_subject(kept)}}}

    # vectors: the read path, on vectors that no stage trains; every
    # lexicon term and name is planted, so none may be reported missing
    rows = _vectors(out / "vectors.txt", seed, entries, _lexicon_terms(fixtures),
                    sizes["vector_tokens"], sizes["dimension"], sizes["noise"])
    queries = _gold(_rng(seed, "queries"), [], sizes["query_words"], words)
    (out / "words.txt").write_text(
        "".join(line.split(",")[0] + "\n" for line in queries), encoding="utf-8")
    return {"entries": len(entries), "vectors": rows, "expect": {
        "subjects": {"labeled": _single_subject(entries), "train_oov_skipped": 0,
                     "test_oov_excluded": 0},
        "bias.gender": {"pairs_missing": 0, "occupations_missing": 0},
        "bias.sexprej": {"excluded_oov": 0, "terms_missing": 0},
        "bias.religion": {"missing_religions": 0, "missing_traits": 0},
        "classes.predict": {"words": len(queries)}}}
