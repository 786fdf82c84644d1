"""Profile families: the seeded random generator."""

import numpy as np
import pytest

from maxvar.families import random_profile


class TestRandomProfile:
    @pytest.mark.parametrize("knots", [43, 200])
    def test_many_knots(self, knots):
        prof = random_profile(np.random.default_rng(1), knots)
        assert len(prof.knots_t) == knots
        assert np.all(np.diff(prof.knots_t) > 0.0)
        assert prof.knots_t[0] == 0.0 and prof.support_radius == 2.0
