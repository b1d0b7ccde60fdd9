"""One fuzz property over the command line: every subcommand, run with one
of its input files corrupted (bytes flipped, a JSON value changed, or the
file cut short), exits with code 0, 1 or 2 and no traceback, and an input
error names the corrupted file."""
import json
import shutil
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from slanglex.cli import main
from slanglex.errors import SchemaError

SUBJECTS = {"woody": "Sex", "boo": "Sex", "thot": "Sex",
            "zorp": "Internet", "lowkey": "Internet", "noob": "Internet"}
# every bias lexicon word occurs in the examples, so the pipeline's own
# vectors cover them
EXAMPLES = ["he said {} to her", "she told the man and the woman {}",
            "the nurse and the doctor said {}", "anna bella john and mark said {}",
            "the muslim and the christian are kind not evil {}"]
SLANG = "".join(json.dumps({
    "headword": word, "definitions": [f"{word} means something"],
    "examples": [example.format(word) for example in EXAMPLES],
    "upvotes": 150 + i, "downvotes": 10, "subjects": [subject]}) + "\n"
    for i, (word, subject) in enumerate(SUBJECTS.items()))
LEXICONS = {"gender_pairs.txt": "he,she\nman,woman\n",
            "occupations.txt": "nurse\ndoctor\n",
            "prejudice_terms.txt": "thot\nwhore\n",
            "religious_terms.txt": "muslim\nchristian\n",
            "trait_terms.txt": "evil\nkind\n"}
NAMES = {"anna": "female", "bella": "female", "john": "male", "mark": "male"}
VOCAB = [*SUBJECTS, "he", "she", "man", "woman", "nurse", "doctor", "whore",
         "muslim", "christian", "evil", "kind", *NAMES]
GOLD = """\
lol,Alphabetism
omg,Alphabetism
brb,Alphabetism
w.t.f,Alphabetism
brunch,Blend,breakfast;lunch
smog,Blend,smoke;fog
motel,Blend,motor;hotel
spork,Blend
fave,Clipping,favorite
bro,Clipping,brother
vibe,Clipping
info,Clipping
boo-boo,Reduplicative
flip-flop,Reduplicative
bye-bye,Reduplicative
hip-hop,Reduplicative
"""


def pristine_inputs(directory: Path) -> dict[str, bytes]:
    """Valid contents of every input file, by path relative to the inputs
    directory; the model is trained once with the CLI."""
    rng = np.random.default_rng(0)
    inputs = {
        "slang.jsonl": SLANG,
        "standard.tsv": "dog\ta pet\ncat\ta pet\nmotel\tan inn\n",
        "gold.csv": GOLD,
        "names.csv": "".join(f"{n},{g}\n" for n, g in NAMES.items()),
        "vectors.txt": f"{len(VOCAB)} 4\n" + "".join(
            f"{t} {' '.join(f'{x:.6f}' for x in rng.normal(size=4))}\n"
            for t in VOCAB),
        "segmenter.tsv": "b\t2\nbr\t1\nfa\t1\nve\t1\n",
        "words.txt": "lol\nbrunch\nfave\n",
        "slanglex.cfg": "ingest.min-votes = 10\n",
        **{f"lexicons/{name}": text for name, text in LEXICONS.items()},
    }
    contents = {name: text.encode("utf-8") for name, text in inputs.items()}
    write_inputs(directory, contents)
    result = CliRunner().invoke(main, [
        "classes", "train", "--gold", str(directory / "gold.csv"),
        "--out", str(directory / "model.npz")])
    assert result.exit_code == 0, result.output
    contents["model.npz"] = (directory / "model.npz").read_bytes()
    return contents


def write_inputs(directory: Path, contents: dict[str, bytes]) -> None:
    (directory / "lexicons").mkdir(parents=True, exist_ok=True)
    for name, data in contents.items():
        (directory / name).write_bytes(data)


# subcommand -> its arguments ({stem} is the path of the input file with
# that stem, {out} the output directory) and the inputs it reads, each of
# which may be corrupted
COMMANDS = {
    "ingest": (["ingest", "--slang", "{slang}", "--out", "{out}/kept.jsonl"],
               ["slang.jsonl"]),
    "config": (["--config", "{slanglex}", "ingest", "--slang",
                "{slang}", "--out", "{out}/kept.jsonl"], ["slanglex.cfg"]),
    "phonology": (["phonology", "--slang", "{slang}", "--standard",
                   "{standard}", "--out", "{out}"],
                  ["slang.jsonl", "standard.tsv"]),
    "morphology": (["morphology", "--slang", "{slang}", "--standard",
                    "{standard}", "--out", "{out}", "--max-iters", "2"],
                   ["slang.jsonl", "standard.tsv"]),
    "classes.train": (["classes", "train", "--gold", "{gold}", "--features",
                       "morph", "--segmenter", "{segmenter}",
                       "--out", "{out}/model.npz"], ["gold.csv", "segmenter.tsv"]),
    "classes.predict": (["classes", "predict", "--model", "{model}", "--in",
                         "{words}", "--delta", "0.5", "--out", "{out}/p.csv"],
                        ["model.npz", "words.txt"]),
    "classes.eval": (["classes", "eval", "--gold", "{gold}", "--delta", "0.5"],
                     ["gold.csv"]),
    "classes.patterns": (["classes", "patterns", "--gold", "{gold}",
                          "--out", "{out}"], ["gold.csv"]),
    "embed": (["embed", "--slang", "{slang}", "--out", "{out}/v.txt",
               "--dimension", "4", "--epochs", "1", "--min-count", "1"],
              ["slang.jsonl"]),
    "subjects": (["subjects", "--slang", "{slang}", "--vectors",
                  "{vectors}", "--out", "{out}", "--test-fraction", "0.3"],
                 ["slang.jsonl", "vectors.txt"]),
    "bias.gender": (["bias", "gender", "--vectors", "{vectors}",
                     "--lexicons", "{lexicons}", "--out", "{out}"],
                    ["vectors.txt", "lexicons/gender_pairs.txt",
                     "lexicons/occupations.txt"]),
    "bias.sexprej": (["bias", "sexprej", "--vectors", "{vectors}",
                      "--lexicons", "{lexicons}", "--names", "{names}",
                      "--out", "{out}", "--n-perms", "50"],
                     ["vectors.txt", "names.csv", "lexicons/prejudice_terms.txt"]),
    "bias.religion": (["bias", "religion", "--vectors", "{vectors}",
                       "--lexicons", "{lexicons}", "--out", "{out}"],
                      ["vectors.txt", "lexicons/religious_terms.txt",
                       "lexicons/trait_terms.txt"]),
    "pipeline": (["pipeline", "--slang", "{slang}", "--standard",
                  "{standard}", "--gold", "{gold}", "--lexicons",
                  "{lexicons}", "--names", "{names}", "--out", "{out}",
                  "--dimension", "4", "--epochs", "1", "--min-count", "1"],
                 ["slang.jsonl", "standard.tsv", "gold.csv", "names.csv",
                  "lexicons/gender_pairs.txt"]),
}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6)
    | st.floats(-1e6, 1e6) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)
JSON_FIELDS = ["headword", "definitions", "examples", "upvotes", "downvotes",
               "subjects", "year_added"]


def corrupt(data, content: bytes, is_json: bool) -> bytes:
    """`content` with bytes flipped, cut short, or (JSON lines) one value of
    one record replaced."""
    how = data.draw(st.sampled_from(
        ["flip", "truncate", "json"] if is_json else ["flip", "truncate"]))
    if how == "truncate":
        return content[:data.draw(st.integers(0, len(content) - 1))]
    if how == "flip":
        flipped = bytearray(content)
        for at, mask in data.draw(st.lists(st.tuples(
                st.integers(0, len(content) - 1), st.integers(1, 255)),
                min_size=1, max_size=4)):
            flipped[at] ^= mask
        return bytes(flipped)
    lines = content.decode("utf-8").splitlines()
    at = data.draw(st.integers(0, len(lines) - 1))
    record = json.loads(lines[at])
    record[data.draw(st.sampled_from(JSON_FIELDS))] = data.draw(JSON_VALUES)
    lines[at] = json.dumps(record)
    return "\n".join(lines).encode("utf-8") + b"\n"


def schema_error(exc):
    """The SchemaError a command's exit was raised from, if any."""
    while exc is not None and not isinstance(exc, SchemaError):
        exc = exc.__cause__ or exc.__context__
    return exc


def run(command: str, directory: Path, names):
    """`command` run on the input files `names` in `directory`."""
    paths = {Path(name).stem: str(directory / name)
             for name in [*names, "lexicons", "out"]}
    return CliRunner().invoke(main, [arg.format_map(paths)
                                     for arg in COMMANDS[command][0]])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return pristine_inputs(tmp_path_factory.mktemp("pristine"))


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=15)
@given(data=st.data())
def test_corrupted_input_fails_cleanly(tmp_path_factory, inputs, command, data):
    directory = tmp_path_factory.getbasetemp() / "fuzz" / command
    shutil.rmtree(directory, ignore_errors=True)
    write_inputs(directory, inputs)
    name = data.draw(st.sampled_from(COMMANDS[command][1]))
    target = directory / name
    target.write_bytes(corrupt(data, inputs[name], name.endswith(".jsonl")))
    result = run(command, directory, inputs)
    assert result.exit_code in (0, 1, 2), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        result.exc_info)
    assert "Traceback" not in result.output
    error = schema_error(result.exception)
    if result.exit_code == 1 and error is not None:
        assert error.path is not None and Path(error.path) == target, (
            result.output)
        assert f"Error: {target}" in result.output


@pytest.mark.parametrize("command", COMMANDS)
def test_uncorrupted_inputs_succeed(tmp_path, inputs, command):
    write_inputs(tmp_path, inputs)
    result = run(command, tmp_path, inputs)
    assert result.exit_code == 0, result.output
