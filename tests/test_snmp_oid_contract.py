"""The OID contract behind the fast paths.

``OID(oid)`` shares the validated parts, comparisons against an OID skip
the coercion, ``child()`` checks only the suffix and ``group_oids`` is
memoised; none of that may change what an OID accepts, rejects or how it
orders against strings, tuples and other OIDs.
"""

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.snmp.mib import MibTree, std
from repro.snmp.oids import OID, as_oid

parts_lists = st.lists(st.integers(min_value=0, max_value=40),
                       min_size=1, max_size=6)
COMPARISONS = (operator.lt, operator.le, operator.gt, operator.ge,
               operator.eq, operator.ne)


def _forms(parts):
    """The same identifier as a dotted string, a tuple and an OID."""
    return (".".join(map(str, parts)), tuple(parts), OID(tuple(parts)))


class TestConstruction:
    @given(parts_lists)
    def test_oid_of_oid_is_equal_and_shares_parts(self, parts):
        oid = OID(".".join(map(str, parts)))
        again = OID(oid)
        assert again == oid and hash(again) == hash(oid)
        assert again.parts is oid.parts
        assert as_oid(oid) is oid and as_oid(tuple(parts)) == oid

    @pytest.mark.parametrize("bad", ["1.-2", "-1", (1, -2), [0, -7]])
    def test_negative_components_still_raise(self, bad):
        with pytest.raises(ValueError, match="non-negative"):
            OID(bad)

    @pytest.mark.parametrize("suffix", [(-1,), (2, -1), ("-3",)])
    def test_child_validates_its_suffix(self, suffix):
        with pytest.raises(ValueError, match="non-negative"):
            OID("1.3").child(*suffix)

    def test_child_and_parent_build_plain_oids(self):
        child = OID("1.3").child(6, "1")
        assert child == OID("1.3.6.1") and child.parts == (1, 3, 6, 1)
        assert child.parent == OID("1.3.6")
        assert OID("1.3").child() == OID("1.3")
        with pytest.raises(ValueError):
            OID("1.3").child("x")
        with pytest.raises(AttributeError):
            child.parts = (1,)


class TestOrdering:
    @settings(max_examples=200)
    @given(parts_lists, parts_lists)
    def test_comparisons_agree_with_coerced_parts(self, left, right):
        for op in COMPARISONS:
            expected = op(tuple(left), tuple(right))
            for other in _forms(right):
                if op in (operator.eq, operator.ne) and not isinstance(
                        other, OID):
                    # Equality never coerces: an OID equals only OIDs.
                    assert op(OID(left), other) == (op is operator.ne)
                    continue
                assert op(OID(left), other) is expected, (op, other)

    @given(parts_lists, parts_lists)
    def test_reflected_comparisons_coerce_the_other_side(self, left, right):
        for form in _forms(left)[:2]:
            assert (form < OID(right)) is (tuple(left) < tuple(right))
            assert (form >= OID(right)) is (tuple(left) >= tuple(right))

    def test_malformed_operands_still_raise(self):
        with pytest.raises(ValueError):
            OID("1.2") < "1.-2"
        with pytest.raises(ValueError):
            OID("1.2") >= "1..2"
        with pytest.raises(TypeError):
            OID("1.2") <= 5

    @given(parts_lists, parts_lists)
    def test_prefix_accepts_every_form(self, prefix, other):
        expected = tuple(other[:len(prefix)]) == tuple(prefix)
        for form in _forms(other):
            assert OID(prefix).is_prefix_of(form) is expected


class TestGroupOids:
    @pytest.mark.parametrize("group", [
        std.GROUP_PERFORMANCE, std.GROUP_STORAGE, std.GROUP_TRAFFIC])
    def test_each_call_returns_an_independent_list(self, group):
        first = std.group_oids(group, interface_count=3, process_slots=2)
        expected = list(first)
        first.append(OID("9.9"))
        first[0] = OID("8.8")
        again = std.group_oids(group, interface_count=3, process_slots=2)
        assert again == expected and again is not first

    def test_shapes_are_kept_apart(self):
        assert len(std.group_oids(std.GROUP_TRAFFIC, 2)) == 7
        assert len(std.group_oids(std.GROUP_TRAFFIC, 24)) == 73
        assert std.group_oids(std.GROUP_STORAGE, process_slots=1)[-1] == (
            std.PROC_TABLE.child(1))
        assert len(std.group_oids(std.GROUP_STORAGE, process_slots=6)) == 9
        with pytest.raises(ValueError, match="unknown OID group"):
            std.group_oids("nonsense")


class TestMibOrder:
    @given(st.lists(parts_lists, unique_by=tuple, max_size=30))
    def test_registration_order_never_changes_the_walk(self, oids):
        tree = MibTree()
        for parts in oids:
            tree.register_scalar(tuple(parts), "x", 0)
        assert tree.oids() == sorted(OID(tuple(p)) for p in oids)
        for parts in oids:
            assert tuple(parts) in tree
            with pytest.raises(ValueError, match="already registered"):
                tree.register_scalar(".".join(map(str, parts)), "y", 1)
