import dataclasses
import re
import sys
from pathlib import Path

import pytest

import dettree
from dettree import BuildConfig

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from paired_bench import (  # noqa: E402
    LIBRARY_TREE,
    format_surface,
    library_digest,
    regression_verdict,
    simplicity_surface,
)

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


class TestSimplicitySurface:
    def test_counts_this_checkout(self):
        src = ROOT / "src" / "dettree"
        namespace = {}
        exec(LIBRARY_TREE, namespace)
        assert simplicity_surface(ROOT) == {
            "src/dettree lines": sum(len(path.read_text().splitlines()) for path in src.glob("*.py")),
            "dettree.__all__ names": len(dettree.__all__),
            "cli.py add_argument calls": (src / "cli.py").read_text().count(".add_argument("),
            "BuildConfig fields": len(dataclasses.fields(BuildConfig)),
            "derived table bytes": sum(a.nbytes for a in namespace["tree"]._tables),
        }

    def test_a_side_whose_library_fails_to_import(self, tmp_path):
        src = tmp_path / "src" / "dettree"
        src.mkdir(parents=True)
        (src / "__init__.py").write_text("raise ImportError\n")
        (src / "cli.py").write_text("p.add_argument('--a')\np.add_argument('--b')\n")
        surface = simplicity_surface(tmp_path)
        assert surface == {"src/dettree lines": 3, "dettree.__all__ names": None, "cli.py add_argument calls": 2,
                           "BuildConfig fields": None, "derived table bytes": None}
        assert format_surface(surface) == ("src/dettree lines 3, dettree.__all__ names None, "
                                           "cli.py add_argument calls 2, BuildConfig fields None, "
                                           "derived table bytes None")


def test_library_digest_of_this_checkout():
    assert re.fullmatch(r"[0-9a-f]{64}", library_digest(ROOT))
