"""Profile families: the seeded random generator and dilation."""

import numpy as np
import pytest

from maxvar.families import dilate_profile, random_profile, tent


class TestRandomProfile:
    @pytest.mark.parametrize("knots", [43, 200])
    def test_many_knots(self, knots):
        prof = random_profile(np.random.default_rng(1), knots)
        assert len(prof.knots_t) == knots
        assert np.all(np.diff(prof.knots_t) > 0.0)
        assert prof.knots_t[0] == 0.0 and prof.support_radius == 2.0


class TestDilateProfile:
    @pytest.mark.parametrize("lam", [0.0, -1.0, np.nan, np.inf])
    def test_factor_must_be_positive_and_finite(self, lam):
        with pytest.raises(ValueError, match="positive and finite"):
            dilate_profile(tent(), lam)
