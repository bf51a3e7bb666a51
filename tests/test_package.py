import blinkcorr
from blinkcorr import correlation, errors, fitting, liouville, markov, params, simulate

MODULES = (correlation, errors, fitting, liouville, markov, params, simulate)


def test_package_exports_each_module_all_once():
    # Each module's __all__ is the one declaration of its public names;
    # the package exports their union and its version, and nothing twice.
    names = blinkcorr.__all__
    assert len(names) == len(set(names))
    assert set(names) == {name for module in MODULES for name in module.__all__} | {"__version__"}
    for module in MODULES:
        for name in module.__all__:
            assert getattr(blinkcorr, name) is getattr(module, name), name


def test_result_types_and_stage_keys_are_top_level():
    # The types fit_slow and least_squares return, and the report's stage
    # keys, are public where they are made and so at the top level too.
    assert blinkcorr.FitStage is fitting.FitStage
    assert blinkcorr.LeastSquaresResult is fitting.LeastSquaresResult
    assert blinkcorr.STAGE_KEYS is fitting.STAGE_KEYS
    assert (blinkcorr.vec, blinkcorr.unvec) == (liouville.vec, liouville.unvec)
