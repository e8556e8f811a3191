import pytest

from nanopose import kalman as K


@pytest.fixture
def cold_schedules():
    """The process's kept gain schedules, empty for the test and after it."""
    K._schedules.clear()
    yield K._schedules
    K._schedules.clear()
