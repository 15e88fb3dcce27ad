"""Setup shared by every test module."""

import pytest
from hypothesis import settings
from hypothesis import strategies as st

# A property that fails prints its ``@reproduce_failure`` blob, so a failure
# seen on only one interpreter of the CI matrix can be replayed elsewhere.
settings.register_profile("alertgraphs", print_blob=True)
settings.load_profile("alertgraphs")


@pytest.hookimpl(trylast=True)  # after Hypothesis's own session start
def pytest_sessionstart(session):
    # The first text strategy to draw makes Hypothesis build its Unicode
    # table (seconds, from an empty ``.hypothesis/`` directory), and that
    # time counts against the "input generation is slow" health check of
    # whichever property draws first. Building it here keeps it out of every
    # test.
    st.text().validate()
