"""The package's public surface: ``sketchopt.__all__`` names each public
name once, and every name it holds resolves on the package."""

import sketchopt
from sketchopt import lp_regression, vmv_sketch
from sketchopt.lp_regression import build_sketch_finite_p, build_sketch_inf

# names the lp module no longer has: solves read only the sketch's factors
REMOVED_LP_NAMES = ("grouped_lp_solve", "sign_enumeration_matrix",
                    "MAX_ENUMERATION_BITS")


def test_package_all_has_no_duplicates_and_every_name_resolves():
    names = sketchopt.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(sketchopt, name)]
    assert missing == []


def test_package_all_holds_every_module_all_it_reexports():
    for module in (lp_regression, vmv_sketch):
        assert set(module.__all__) <= set(sketchopt.__all__)
        for name in module.__all__:
            assert getattr(sketchopt, name) is getattr(module, name)


def test_removed_lp_names_are_gone():
    for name in REMOVED_LP_NAMES:
        assert name not in sketchopt.__all__
        assert name not in lp_regression.__all__
        assert not hasattr(sketchopt, name)
        assert not hasattr(lp_regression, name)


def test_block_sketch_is_its_factors_p_and_apply():
    for sketch in (build_sketch_finite_p(2, [0], 3, 1.5),
                   build_sketch_inf(2, 3)):
        public = {name for name in dir(sketch) if not name.startswith("_")}
        assert public == {"factors", "p", "apply"}
