import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from paired_bench import regression_verdict  # noqa: E402

STEADY = [1.0, 1.0, 1.01, 1.01, 1.02, 1.0, 1.01, 0.99, 1.0, 1.02]
NOISY = [0.6, 0.8, 1.0, 1.2, 1.4, 0.7, 0.9, 1.1, 1.3, 1.0]


class TestRegressionVerdict:
    @pytest.mark.parametrize("scale, verdict", [(0.5, "no worse"), (1.0, "no worse"), (1.2, "no worse"),
                                                (1.3, "worse"), (2.0, "worse")])
    def test_lower_is_better_against_the_bound(self, scale, verdict):
        assert regression_verdict(STEADY, [x * scale for x in STEADY], True, 0.25) == verdict

    @pytest.mark.parametrize("scale, verdict", [(1.5, "no worse"), (0.8, "no worse"), (0.7, "worse")])
    def test_higher_is_better_against_the_bound(self, scale, verdict):
        assert regression_verdict(STEADY, [x * scale for x in STEADY], False, 0.25) == verdict

    def test_base_spread_beyond_the_bound_is_unresolved(self):
        # the base's interquartile range is 40 % of its median
        assert regression_verdict(NOISY, NOISY, True, 0.25) == "unresolved"
        assert regression_verdict(NOISY, [x * 2.0 for x in NOISY], True, 0.25) == "unresolved"

    def test_every_change_run_better_resolves_a_noisy_base(self):
        assert regression_verdict(NOISY, [0.5] * 10, True, 0.25) == "no worse"
        assert regression_verdict(NOISY, [1.5] * 10, False, 0.25) == "no worse"
