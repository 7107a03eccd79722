import random

import pytest
from hypothesis import HealthCheck, settings

from wbtree.core import NIL
from wbtree.redblack import RB_NIL

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
    """Fail the test that corrupts a shared sentinel, and restore it.

    Every weight-balanced tree in the process shares NIL, and every
    red-black tree shares RB_NIL, so a corrupted sentinel would otherwise
    poison every tree built after it. Neither has a parent field to check.
    """
    yield
    for name, nil, field, value in (("NIL", NIL, "weight", 1),
                                    ("RB_NIL", RB_NIL, "red", False)):
        state = (nil.key, getattr(nil, field), nil.left is nil,
                 nil.right is nil)
        if state != (None, value, True, True):
            nil.key = None
            setattr(nil, field, value)
            nil.left = nil.right = nil
            pytest.fail(f"shared {name} sentinel corrupted: (key, {field}, "
                        f"left is {name}, right is {name}) = {state}",
                        pytrace=False)
