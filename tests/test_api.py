"""The package's public names come from its modules' own ``__all__`` lists."""

import deepdict
from deepdict import baseline, classify, data, harness, intraclass, kernels, model_io

MODULES = (baseline, classify, data, harness, intraclass, kernels, model_io)


def test_package_exports_exactly_the_module_exports():
    module_names = [name for module in MODULES for name in module.__all__]
    assert len(module_names) == len(set(module_names))
    assert sorted(deepdict.__all__) == sorted(["__version__", *module_names])
    for name in deepdict.__all__:
        assert hasattr(deepdict, name)


def test_test_only_helpers_are_not_exported_but_importable():
    for name in ("column_gradient", "dictionary_gradient", "update_dictionary"):
        assert name not in deepdict.__all__
        assert name not in intraclass.__all__
        assert callable(getattr(intraclass, name))
