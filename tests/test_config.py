"""The test configuration itself: pyproject.toml's pytest settings, run in
an inner session."""
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_failing_property_does_not_end_the_session(pytester):
    # warnings are errors; the report of a failing Hypothesis example must
    # not turn one into an INTERNALERROR that ends the session there
    pytester.makepyprojecttoml(PYPROJECT.read_text(encoding="utf-8"))
    pytester.makepyfile(test_inner="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_property_fails(n):
            assert n < 10

        def test_later():
            assert True
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider",
                                           "test_inner.py")
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str()
