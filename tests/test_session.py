"""The test session itself: a failing test never hides the tests after it."""

from pathlib import Path

FAILING_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(x):
    assert x < 0


def test_b_plain_failure():
    assert False
"""


def test_failing_property_test_does_not_end_the_session(pytester):
    # a fresh process with this suite's conftest and its filterwarnings = error
    pytester.makeconftest(Path(__file__).with_name("conftest.py").read_text())
    pytester.makepyprojecttoml('[tool.pytest.ini_options]\nfilterwarnings = ["error"]\n')
    pytester.makepyfile(test_failures=FAILING_TESTS)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.assert_outcomes(failed=2)
    result.stdout.fnmatch_lines(["FAILED *test_a_failing_property*", "FAILED *test_b_plain_failure*"])
