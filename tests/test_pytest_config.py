"""The suite's own pytest settings keep failures reportable."""

from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_hypothesis_test_is_reported_and_session_continues(pytester):
    # filterwarnings = ["error"] must not turn a warning raised while
    # Hypothesis writes its failure report into an INTERNALERROR.
    pytester.makepyprojecttoml(PYPROJECT.read_text("utf-8"))
    pytester.makepyfile(
        test_inner="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n < 0

        def test_after():
            pass
        """
    )
    result = pytester.runpytest_subprocess("test_inner.py")
    result.assert_outcomes(failed=1, passed=1)
    result.stdout.fnmatch_lines(["*Falsifying example*"])
    result.stdout.no_fnmatch_line("*INTERNALERROR*")
