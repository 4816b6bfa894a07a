"""Tests for the fixed-size array hierarchy (paper Figure 3)."""

import pytest

from repro.typelattice import Lattice, registry as R


@pytest.fixture(scope="module")
def lattice():
    return Lattice.for_sizes({0, 8, 20, 44, 100})


class TestFigure3Edges:
    """Every edge drawn in Figure 3, at representative sizes."""

    def test_fixed_types_under_their_array_unifieds(self, lattice):
        assert lattice.is_subtype(R.RONLY_FIXED(44), R.R_ARRAY(44))
        assert lattice.is_subtype(R.RW_FIXED(44), R.RW_ARRAY(44))
        assert lattice.is_subtype(R.WONLY_FIXED(44), R.W_ARRAY(44))

    def test_fixed_exact_size_constraint(self, lattice):
        # t <= v: a 44-byte buffer provides any weaker guarantee...
        assert lattice.is_subtype(R.RONLY_FIXED(44), R.R_ARRAY(20))
        # ...but not a stronger one.
        assert not lattice.is_subtype(R.RONLY_FIXED(20), R.R_ARRAY(44))

    def test_rw_array_under_r_and_w(self, lattice):
        assert lattice.is_subtype(R.RW_ARRAY(44), R.R_ARRAY(44))
        assert lattice.is_subtype(R.RW_ARRAY(44), R.W_ARRAY(20))
        assert not lattice.is_subtype(R.R_ARRAY(44), R.RW_ARRAY(44))

    def test_size_weakening_within_one_template(self, lattice):
        # Requiring more bytes is the stronger type.
        assert lattice.is_subtype(R.R_ARRAY(44), R.R_ARRAY(8))
        assert not lattice.is_subtype(R.R_ARRAY(8), R.R_ARRAY(44))

    def test_null_unified_variants(self, lattice):
        for null_variant in (R.R_ARRAY_NULL(44), R.W_ARRAY_NULL(44), R.RW_ARRAY_NULL(44)):
            assert lattice.is_subtype(R.NULL, null_variant)
        assert lattice.is_subtype(R.R_ARRAY(44), R.R_ARRAY_NULL(44))
        assert lattice.is_subtype(R.RW_ARRAY_NULL(44), R.R_ARRAY_NULL(44))
        assert lattice.is_subtype(R.RW_ARRAY_NULL(44), R.W_ARRAY_NULL(20))

    def test_everything_below_unconstrained(self, lattice):
        for instance in (
            R.NULL,
            R.INVALID,
            R.RONLY_FIXED(44),
            R.RW_FIXED(8),
            R.WONLY_FIXED(0),
            R.R_ARRAY(100),
            R.RW_ARRAY_NULL(20),
        ):
            assert lattice.is_subtype(instance, R.UNCONSTRAINED)

    def test_invalid_only_below_unconstrained(self, lattice):
        for other in (R.R_ARRAY_NULL(8), R.RW_ARRAY(8), R.R_ARRAY(0)):
            assert not lattice.is_subtype(R.INVALID, other)

    def test_read_and_write_branches_incomparable(self, lattice):
        assert not lattice.is_subtype(R.R_ARRAY(8), R.W_ARRAY(8))
        assert not lattice.is_subtype(R.W_ARRAY(8), R.R_ARRAY(8))
        assert not lattice.is_subtype(R.RONLY_FIXED(8), R.W_ARRAY(8))
        assert not lattice.is_subtype(R.WONLY_FIXED(8), R.R_ARRAY(8))


class TestPartialOrderLaws:
    def test_reflexivity(self, lattice):
        for instance in lattice.instances:
            assert lattice.is_subtype(instance, instance)

    def test_antisymmetry(self, lattice):
        for a in lattice.instances:
            for b in lattice.instances:
                if a != b:
                    assert not (
                        lattice.is_subtype(a, b) and lattice.is_subtype(b, a)
                    ), f"{a} and {b} are mutually subtypes"

    def test_transitivity(self, lattice):
        # Spot-check a known three-step chain.
        assert lattice.is_subtype(R.RW_FIXED(44), R.RW_ARRAY(44))
        assert lattice.is_subtype(R.RW_ARRAY(44), R.R_ARRAY(20))
        assert lattice.is_subtype(R.R_ARRAY(20), R.R_ARRAY_NULL(8))
        assert lattice.is_subtype(R.RW_FIXED(44), R.R_ARRAY_NULL(8))

    def test_fundamental_types_are_never_supertypes(self, lattice):
        """Paper: "A fundamental type is never a supertype"."""
        for fundamental in lattice.fundamentals():
            assert not lattice.subtypes(fundamental), (
                f"fundamental {fundamental} has subtypes"
            )


class TestHelpers:
    def test_weakest_of_chain(self, lattice):
        chain = [R.RW_FIXED(44), R.RW_ARRAY(44), R.R_ARRAY(44), R.R_ARRAY_NULL(44)]
        assert lattice.weakest(chain) == [R.R_ARRAY_NULL(44)]

    def test_weakest_keeps_incomparables(self, lattice):
        result = lattice.weakest([R.R_ARRAY(8), R.W_ARRAY(8)])
        assert set(result) == {R.R_ARRAY(8), R.W_ARRAY(8)}

    def test_members_of(self, lattice):
        fundamentals = [R.RONLY_FIXED(44), R.RW_FIXED(44), R.NULL, R.INVALID]
        members = {
            f for f in fundamentals if lattice.is_subtype(f, R.R_ARRAY_NULL(44))
        }
        assert members == {R.RONLY_FIXED(44), R.RW_FIXED(44), R.NULL}


class TestLatticeMemo:
    def test_replaced_rule_is_never_served_a_stale_lattice(self):
        """``for_sizes`` must follow the current rule object even when a
        replacement lands at the id its freed predecessor had."""
        from repro.typelattice.rules import DIRECT_RULES

        edge = ("RONLY_FIXED", "R_ARRAY")
        original = DIRECT_RULES[edge]
        seen_ids: set[int] = set()
        try:
            for flip in range(64):
                expected = flip % 2 == 0
                # Drop the old rule before making the new one, so the
                # new one can land at its id unless the memo keeps it.
                del DIRECT_RULES[edge]
                if expected:
                    DIRECT_RULES[edge] = lambda a, b: True
                else:
                    DIRECT_RULES[edge] = lambda a, b: False
                rule_id = id(DIRECT_RULES[edge])
                lattice = Lattice.for_sizes({4})
                assert lattice.is_subtype(R.RONLY_FIXED(4), R.R_ARRAY(4)) is expected
                if rule_id in seen_ids:
                    break  # an id was reused and the lattice still followed
                seen_ids.add(rule_id)
        finally:
            DIRECT_RULES[edge] = original
        assert Lattice.for_sizes({4}).is_subtype(R.RONLY_FIXED(4), R.R_ARRAY(4))
