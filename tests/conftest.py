"""Setup shared by every test module."""

import pytest
from hypothesis import strategies as st


@pytest.hookimpl(trylast=True)  # after Hypothesis's own session start
def pytest_sessionstart(session):
    # The first text strategy to draw makes Hypothesis build its Unicode
    # table (seconds, from an empty ``.hypothesis/`` directory), and that
    # time counts against the "input generation is slow" health check of
    # whichever property draws first. Building it here keeps it out of every
    # test.
    st.text().validate()
