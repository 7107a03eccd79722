import random

import pytest
from hypothesis import HealthCheck, settings

from wbtree.core import NIL

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=60,
)
settings.load_profile("suite")


@pytest.fixture
def rnd():
    # Plain stdlib RNG for shuffling test inputs; the library's own
    # generator is under test elsewhere and should not be used here.
    return random.Random(0xC0FFEE)


@pytest.fixture(autouse=True)
def nil_sentinel_guard():
    """Fail the test that corrupts the shared NIL sentinel, and restore it.

    Every weight-balanced tree in the process shares NIL, so a corrupted
    sentinel would otherwise poison every tree built after it. NIL is a
    plain Node, with no parent field to check.
    """
    yield
    state = (NIL.key, NIL.weight, NIL.left is NIL, NIL.right is NIL)
    if state != (None, 1, True, True):
        NIL.key = None
        NIL.weight = 1
        NIL.left = NIL.right = NIL
        pytest.fail("shared NIL sentinel corrupted: (key, weight, left is "
                    f"NIL, right is NIL) = {state}", pytrace=False)
