"""Tests for robust argument type computation (paper section 4.3)."""

import pytest

from repro.typelattice import (
    AUTO_CHECKABLE,
    Lattice,
    Observation,
    SEMI_AUTO_CHECKABLE,
    TestResult,
    VectorObservation,
    compute_robust_type,
    compute_robust_vector,
    registry as R,
)

S = TestResult.SUCCESS
E = TestResult.ERROR
F = TestResult.FAILURE


def obs(*pairs):
    return [Observation(fundamental, result) for fundamental, result in pairs]


class TestPaperExamples:
    def test_asctime_example(self):
        """Section 4.3: RONLY_FIXED[s>=44], RW_FIXED[s>=44] and NULL
        succeed, everything else fails -> R_ARRAY_NULL[44]."""
        lattice = Lattice.for_sizes({0, 8, 20, 44})
        observations = obs(
            (R.RONLY_FIXED(0), F), (R.RONLY_FIXED(8), F), (R.RONLY_FIXED(20), F),
            (R.RW_FIXED(0), F), (R.RW_FIXED(8), F), (R.RW_FIXED(20), F),
            (R.RONLY_FIXED(44), S), (R.RW_FIXED(44), S), (R.NULL, S),
            (R.WONLY_FIXED(44), F), (R.INVALID, F),
        )
        result = compute_robust_type(observations, lattice=lattice)
        assert result.robust == R.R_ARRAY_NULL(44)
        assert result.safe
        assert result.crash_free

    def test_asctime_with_error_returning_null(self):
        """Figure 2's actual declaration: NULL makes asctime return an
        error (EINVAL); under the atomic-function assumption the
        robust type still includes NULL."""
        lattice = Lattice.for_sizes({0, 44})
        observations = obs(
            (R.RONLY_FIXED(0), F), (R.RW_FIXED(0), F),
            (R.RONLY_FIXED(44), S), (R.RW_FIXED(44), S),
            (R.NULL, E), (R.INVALID, F), (R.WONLY_FIXED(44), F),
        )
        result = compute_robust_type(observations, lattice=lattice)
        assert result.robust == R.R_ARRAY_NULL(44)

    def test_tolerated_invalid_pointer(self):
        """Section 4.3's -1 example: an implementation that *errors*
        (not crashes) on pointer -1.  The robust type need not include
        -1 thanks to atomicity, and no safe type exists."""
        lattice = Lattice.for_sizes({0, 44})
        observations = obs(
            (R.RONLY_FIXED(44), S), (R.RW_FIXED(44), S), (R.NULL, S),
            (R.INVALID, E),  # returns an error code instead of crashing
            (R.RONLY_FIXED(0), F), (R.WONLY_FIXED(44), F),
        )
        result = compute_robust_type(observations, lattice=lattice)
        assert result.robust == R.R_ARRAY_NULL(44)
        assert not result.safe  # INVALID is outside yet did not crash

    def test_conservative_mode_includes_error_returns(self):
        """The paper's stricter variant anchors on every returning
        test case; INVALID then forces UNCONSTRAINED."""
        lattice = Lattice.for_sizes({0, 44})
        observations = obs(
            (R.RONLY_FIXED(44), S), (R.NULL, S),
            (R.INVALID, E), (R.RONLY_FIXED(0), F),
        )
        result = compute_robust_type(
            observations, lattice=lattice, conservative=True
        )
        assert result.robust == R.UNCONSTRAINED


class TestSelectionRules:
    def test_never_crashing_argument_is_unconstrained(self):
        lattice = Lattice.for_sizes({8})
        observations = obs(
            (R.RONLY_FIXED(8), S), (R.NULL, S), (R.INVALID, S), (R.RW_FIXED(8), S)
        )
        result = compute_robust_type(observations, lattice=lattice)
        assert result.robust == R.UNCONSTRAINED
        assert result.safe

    def test_write_only_access_pattern(self):
        """cfsetispeed-style: write access suffices."""
        lattice = Lattice.for_sizes({0, 4, 52, 16384})
        observations = obs(
            (R.WONLY_FIXED(52), S), (R.RW_FIXED(52), S),
            (R.WONLY_FIXED(0), F), (R.WONLY_FIXED(4), F),
            (R.RW_FIXED(0), F), (R.RW_FIXED(4), F),
            (R.RONLY_FIXED(16384), F),  # read-only never works
            (R.NULL, F), (R.INVALID, F),
        )
        result = compute_robust_type(observations, lattice=lattice)
        assert result.robust == R.W_ARRAY(52)

    def test_read_write_access_pattern(self):
        """cfsetospeed-style: both accesses required."""
        lattice = Lattice.for_sizes({0, 56, 16384})
        observations = obs(
            (R.RW_FIXED(56), S),
            (R.RW_FIXED(0), F),
            (R.RONLY_FIXED(16384), F),
            (R.WONLY_FIXED(16384), F),
            (R.NULL, F), (R.INVALID, F),
        )
        result = compute_robust_type(observations, lattice=lattice)
        assert result.robust == R.RW_ARRAY(56)

    def test_mode_string_inference(self):
        lattice = Lattice.for_sizes({1})
        observations = obs(
            (R.VALID_MODE, S),
            (R.STRING_RO, F), (R.STRING_RW, F), (R.VALID_FORMAT, F),
            (R.NULL, F), (R.INVALID, F),
        )
        result = compute_robust_type(observations, lattice=lattice)
        assert result.robust == R.MODE_STRING

    def test_mixed_fundamental_minimizes_contained_crashes(self):
        """A fundamental with both successes and crashes cannot be
        excluded; the computation then minimizes contained crashing
        fundamentals instead of giving up."""
        lattice = Lattice.for_sizes({8})
        observations = obs(
            (R.STRING_RO, S), (R.STRING_RO, F),  # mixed
            (R.NULL, F), (R.INVALID, F),
        )
        result = compute_robust_type(observations, lattice=lattice)
        # must contain STRING_RO (a success) but not NULL/INVALID.
        assert result.robust != R.UNCONSTRAINED
        assert lattice.is_subtype(R.STRING_RO, result.robust)
        assert not lattice.is_subtype(R.NULL, result.robust)
        assert not result.crash_free

    def test_empty_success_falls_back_to_error_anchor(self):
        lattice = Lattice.for_sizes({8})
        observations = obs((R.NULL, E), (R.INVALID, F), (R.RONLY_FIXED(8), F))
        result = compute_robust_type(observations, lattice=lattice)
        assert lattice.is_subtype(R.NULL, result.robust)
        assert not lattice.is_subtype(R.INVALID, result.robust)

    def test_no_observations_rejected(self):
        with pytest.raises(ValueError):
            compute_robust_type([])


class TestCheckability:
    def test_open_dir_requires_semi_auto(self):
        """Section 5.2/6: OPEN_DIR has no automatic checking function;
        full-auto weakens to accessible memory, the manual assertions
        enable the precise type."""
        lattice = Lattice.for_sizes({72})
        observations = obs(
            (R.OPEN_DIR, S),
            (R.CORRUPT_DIR, F), (R.RW_FIXED(72), F),
            (R.NULL, F), (R.INVALID, F),
        )
        auto = compute_robust_type(
            observations, lattice=lattice, checkable=lambda t: t.name in AUTO_CHECKABLE
        )
        semi = compute_robust_type(
            observations,
            lattice=lattice,
            checkable=lambda t: t.name in SEMI_AUTO_CHECKABLE,
        )
        assert auto.robust.name in ("R_ARRAY", "W_ARRAY", "RW_ARRAY")
        assert not auto.crash_free
        assert auto.ideal == R.OPEN_DIR
        assert semi.robust == R.OPEN_DIR
        assert semi.crash_free

    def test_ideal_reported_alongside_checkable(self):
        lattice = Lattice.for_sizes({72})
        observations = obs(
            (R.OPEN_DIR, S), (R.NULL, F), (R.INVALID, F), (R.RW_FIXED(72), F)
        )
        result = compute_robust_type(
            observations, lattice=lattice, checkable=lambda t: t.name in AUTO_CHECKABLE
        )
        assert result.ideal == R.OPEN_DIR
        assert result.robust != result.ideal


class TestVectors:
    def test_componentwise_attribution(self):
        """Crashes only count against the blamed argument."""
        lattice = Lattice.for_sizes({8, 16})
        vectors = [
            VectorObservation((R.RW_FIXED(16), R.STRING_RO), S, None),
            VectorObservation((R.RW_FIXED(16), R.NULL), F, 1),
            VectorObservation((R.NULL, R.STRING_RO), F, 0),
            VectorObservation((R.RW_FIXED(16), R.INVALID), F, 1),
        ]
        results = compute_robust_vector(vectors, lattices=[lattice, lattice])
        # arg0: RW_FIXED succeeded, NULL crashed (blamed)
        assert not lattice.is_subtype(R.NULL, results[0].robust)
        assert lattice.is_subtype(R.RW_FIXED(16), results[0].robust)
        # arg1: STRING_RO succeeded, NULL/INVALID crashed (blamed)
        assert not lattice.is_subtype(R.NULL, results[1].robust)
        assert lattice.is_subtype(R.STRING_RO, results[1].robust)

    def test_unattributed_crash_blames_never_returning_fundamentals(self):
        """Blame-by-elimination: a wild-pointer crash with no owner is
        charged to argument positions whose fundamental never produced
        a returning call (the fopen bad-mode-content case)."""
        lattice = Lattice.for_sizes({1})
        vectors = [
            VectorObservation((R.STRING_RO, R.VALID_MODE), S, None),
            VectorObservation((R.STRING_RO, R.STRING_RO), F, None),  # mode crash
            VectorObservation((R.STRING_RW, R.VALID_MODE), S, None),
        ]
        results = compute_robust_vector(vectors, lattices=[lattice, lattice])
        assert results[1].robust == R.MODE_STRING
        # arg0's STRING_RO returned elsewhere, so it is not blamed.
        assert lattice.is_subtype(R.STRING_RO, results[0].robust)

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compute_robust_vector(
                [
                    VectorObservation((R.NULL,), S, None),
                    VectorObservation((R.NULL, R.NULL), S, None),
                ]
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_robust_vector([])


class TestTypeVectorOrder:
    def test_pointwise_order(self):
        from repro.typelattice import TypeVectorOrder

        lattice = Lattice.for_sizes({8, 16})
        order = TypeVectorOrder([lattice, lattice])
        sub = (R.RW_FIXED(16), R.NULL)
        sup = (R.RW_ARRAY(8), R.R_ARRAY_NULL(8))
        assert order.is_subvector(sub, sup)
        assert not order.is_subvector(sup, sub)

    def test_mixed_directions_incomparable(self):
        from repro.typelattice import TypeVectorOrder

        lattice = Lattice.for_sizes({8})
        order = TypeVectorOrder([lattice, lattice])
        a = (R.R_ARRAY(8), R.NULL)
        b = (R.NULL, R.R_ARRAY(8))
        assert not order.is_subvector(a, b)
        assert not order.is_subvector(b, a)
