"""The package API is the four modules' public lists, each name declared once."""

import subprocess
import sys

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


def test_import_builds_no_index_plan():
    # a fresh interpreter: the plans are built per dimension on first use
    code = (
        "import curvlab.cli\n"
        "from curvlab import cli, conditions, lambda2\n"
        "caches = (lambda2._pairs, lambda2._plan, lambda2._quads, conditions._draws, cli._build_parser)\n"
        "print([f.cache_info().currsize for f in caches])"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0, 0, 0, 0]"
