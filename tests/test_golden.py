"""Golden digests of the fixture pipeline's reports that need no BLAS.

The reports below come from pure-Python arithmetic (filtering, phonology,
morphology and the word-formation patterns), so their bytes are the same
on every machine. The class, crossclass, vector, subject and bias reports
rest on numpy's floating-point kernels and are checked for determinism
only, by acceptance check c9.

A refactor must leave these digests unchanged. After a change that is
meant to alter one of these reports, regenerate the digests with

    python -m slanglex.cli pipeline --fixtures --seed 7 --out OUT
    sha256sum OUT/<file>

(the failure message also shows the current digests), paste them into
``DIGESTS``, and say in CHANGES.md which reports changed and why.
"""
import hashlib

from click.testing import CliRunner

from slanglex.cli import main

DIGESTS = {
    "filtered.jsonl":
        "7ac9446fb9f37700394b2e87d816ba899a4b1bfe04c7525e02c43c8a33eaf13e",
    "phoneme_odds.csv":
        "2cdbdc341f8ef5a6b9385e1bf691da7b0e6b7db51c7304f1d40989932219bed7",
    "manner_positions.csv":
        "4c8007ccf76b3b9e0b3e737b4cc38544caa33a22bb89769828f2dfb62c834eba",
    "segmenter_slang.tsv":
        "87d19c92e2612bc7ab94ffc79cfe3c1ab8cc57f66486c807923cab960a0d7d37",
    "segmenter_standard.tsv":
        "e81eff3773509fed4658271454ca3bffbd73389a130e5e0af2479448af9fbc69",
    "segmentations_slang.tsv":
        "2da57fbe9c50d018665ffe4403539d7326b1239baf3ac2208c56d1574aff66ad",
    "segmentations_standard.tsv":
        "4fc1fc243a5266956fae2b509a8b309e53bfb49ad3f41b0530a83143493d53d2",
    "affix_shares.csv":
        "5118722505ecfe5606af0086c0fd988a090e200070ec75ed3078e8168055f1b9",
    "clipping_types.csv":
        "8547cdd292e5bb1bde707463b7c72fc55557dab2669bf92a1eab79e01343bb66",
    "reduplicative_types.csv":
        "ab0d245b4df56206956453970206ecf9b5a107e6f166b9a161db7a1309acf551",
    "substitutions.csv":
        "42c09f797aad5dfa8fc20b04c94e141655c59bec575bd90f0c943f238207cdfb",
    "blend_suffixes.csv":
        "c7e355ca4f25b9589422aa50c7c94acf1f03f4c8bfef2c70e7e5ac390c9394fc",
}


def test_reports_match_their_golden_digests(tmp_path):
    result = CliRunner().invoke(main, ["pipeline", "--fixtures", "--seed", "7",
                                       "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in DIGESTS}
    assert digests == DIGESTS
