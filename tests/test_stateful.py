"""All 15 variants in lockstep with SortedMultisetOracle, as a hypothesis
state machine: inserts with duplicates, deletes of present and absent keys,
ops whose key comparison raises midway, and a full audit of every tree
after every step. Beside the named sets, both weight-balanced schemes run
two deep infeasible custom sets, <3/2, 1> and <1, 1>, with delta and
gamma at or near their floor of 1."""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from wbtree.bench import SCHEMES, expand_variants
from wbtree.oracle import SortedMultisetOracle, audit_balance, audit_structure
from wbtree.params import PARAM_SETS, SOUND_PARAMS
from wbtree.redblack import audit as rb_audit

from test_top_down import Fuse

DEEP_INFEASIBLE = ["custom:3/2:1/1", "custom:1/1:1/1"]
VARIANTS = expand_variants(list(SCHEMES), [*PARAM_SETS, *DEEP_INFEASIBLE])

# A narrow key range, so inserts repeat keys and deletes often miss.
keys = st.integers(-3, 40)


def audit_of(vs):
    """The strongest audit the variant promises to pass."""
    if vs.params is None:
        return rb_audit
    if vs.params in SOUND_PARAMS[vs.scheme]:
        return audit_balance
    return audit_structure


class LockstepTrees(RuleBasedStateMachine):

    def __init__(self):
        super().__init__()
        self.oracle = SortedMultisetOracle()
        self.trees = [(vs.label, vs.make_tree(), audit_of(vs))
                      for vs in VARIANTS]

    @rule(key=keys)
    def insert(self, key):
        self.oracle.insert(key)
        for _, t, _ in self.trees:
            t.insert(key)

    @rule(key=keys)
    def delete(self, key):
        want = self.oracle.remove(key)
        for label, t, _ in self.trees:
            assert t.delete(key) is want, label

    @precondition(lambda self: len(self.oracle) > 0)
    @rule(data=st.data())
    def delete_present(self, data):
        key = data.draw(st.sampled_from(self.oracle.keys()))
        assert self.oracle.remove(key)
        for label, t, _ in self.trees:
            assert t.delete(key) is True, label

    @precondition(lambda self: len(self.oracle) > 0)
    @rule(op=st.sampled_from(["insert", "delete"]), key=keys, data=st.data())
    def raising_op(self, op, key, data):
        # Each tree makes its own number of comparisons, so each draws its
        # own budget, below what the op takes on a clone (at least one on a
        # non-empty tree): the op raises in every tree, and none may change
        # its contents or break its audit.
        for label, t, _ in self.trees:
            spare = Fuse(key, 10 ** 6)
            getattr(t.clone(), op)(spare)
            needed = 10 ** 6 - spare.budget
            budget = data.draw(st.integers(0, needed - 1), label=label)
            with pytest.raises(RuntimeError):
                getattr(t, op)(Fuse(key, budget))

    @invariant()
    def every_tree_matches_the_oracle_and_passes_its_audit(self):
        want = self.oracle.keys()
        for label, t, audit in self.trees:
            assert len(t) == len(want), label
            assert t.inorder_keys() == want, label
            assert audit(t) == [], label


def test_variant_list_covers_every_scheme_and_set():
    assert len(VARIANTS) == 15
    assert {vs.label for vs in VARIANTS} == {"redblack"} | {
        f"{scheme}/{name}" for scheme in ("bottom_up", "top_down")
        for name in [*PARAM_SETS, *DEEP_INFEASIBLE]}


TestLockstepTrees = LockstepTrees.TestCase
TestLockstepTrees.settings = settings(stateful_step_count=80)
