"""Only ``backend`` and ``phase_ring`` reach the term kernel, and the kernel
imports no ``fractions``.

Every layer above ``phase_ring`` works in ``RingElement`` and ``Fraction``
arithmetic, so the kernel's unfinished-accumulator contract (``mul_acc``,
then ``finish`` once by the owner of the sum) has a single owner.  The
sources are parsed, not imported, so a kernel import inside a function
counts too.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "bilax"


def reaches_kernel(source: str) -> bool:
    """True when the module imports ``kernel`` in any form, or reads
    ``backend.kernel``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "kernel":
                return True
            if any(a.name == "kernel" for a in node.names):
                return True
        elif isinstance(node, ast.Import):
            if any(a.name.split(".")[-1] == "kernel" for a in node.names):
                return True
        elif isinstance(node, ast.Attribute) and node.attr == "kernel":
            if isinstance(node.value, ast.Name) and node.value.id == "backend":
                return True
    return False


@pytest.mark.parametrize("source", [
    "from .backend import kernel as K",
    "from . import kernel",
    "from .kernel import canon",
    "from bilax.kernel import quo",
    "import bilax.kernel",
    "from . import backend\nK = backend.kernel",
    "def f():\n    from .kernel import canon",
])
def test_detector_sees_every_import_form(source):
    assert reaches_kernel(source)


def test_detector_ignores_other_imports():
    assert not reaches_kernel("from .backend import QQ\nfrom .phase_ring import Fraction")


def test_only_backend_and_phase_ring_import_the_kernel():
    users = {p.stem for p in SRC.glob("*.py") if reaches_kernel(p.read_text())}
    assert users == {"backend", "phase_ring"}


def test_kernel_imports_no_fractions():
    # the kernel's coefficients are ints: a rational polynomial is int
    # terms over one den, kept by ``phase_ring.RingElement``
    tree = ast.parse((SRC / "kernel.py").read_text())
    imported = {a.name.split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.Import)
                for a in node.names}
    imported |= {(node.module or "").split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert "fractions" not in imported
