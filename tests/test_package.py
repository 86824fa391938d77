"""The package API is the four modules' public lists, each name declared once."""

import curvlab
from curvlab import conditions, flow, frames, tensors

MODULES = (tensors, frames, conditions, flow)


def test_package_exports_the_module_lists():
    names = [name for mod in MODULES for name in mod.__all__]
    assert curvlab.__all__ == names
    assert len(set(names)) == len(names)
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(curvlab, name) is getattr(mod, name), (mod.__name__, name)
