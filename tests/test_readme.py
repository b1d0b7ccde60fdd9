"""README's library example runs as written, on the bundled fixture
lexicon in place of its ``ud.jsonl``."""
import re
from importlib.resources import files
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```",
                        README.read_text(encoding="utf-8"), re.DOTALL)
    assert len(blocks) == 1
    assert blocks[0].count('"ud.jsonl"') == 1
    fixture = files("slanglex").joinpath("data", "fixtures", "slang.jsonl")
    exec(blocks[0].replace('"ud.jsonl"', repr(str(fixture))), {})
    morphs, similarity = capsys.readouterr().out.splitlines()
    assert morphs == "('dogcat',)"
    assert -1.0 <= float(similarity) <= 1.0
