"""The scipy surface of src/lmoll: every import of scipy, read from the
source with ast, so that a new dependency cannot slip in unnoticed."""
from __future__ import annotations

import ast
import pathlib

import lmoll

SRC = pathlib.Path(lmoll.__file__).parent

# (module file, scipy module, imported name): the overlap integrals of the
# shifted main term, and the two Bessel kernels of the Voronoi dual sums
ALLOWED = {
    ("offdiag.py", "scipy.integrate", "quad"),
    ("voronoi.py", "scipy.special", "k0"),
    ("voronoi.py", "scipy.special", "y0"),
}


def scipy_imports(root: pathlib.Path = SRC) -> set[tuple[str, str, str | None]]:
    """Every scipy import in root's modules, at any depth; a plain
    `import scipy...` records the name as None."""
    found = set()
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                found |= {(path.name, alias.name, None) for alias in node.names
                          if alias.name.split(".")[0] == "scipy"}
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
                found |= {(path.name, node.module, alias.name) for alias in node.names}
    return found


def test_scipy_imports_are_the_allowed_ones():
    assert scipy_imports() == ALLOWED


def test_scanner_sees_every_import_form(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import scipy\n"
        "def f():\n"
        "    import scipy.special as sp\n"
        "    from scipy.integrate import quad, trapezoid\n"
        "import numpy\n")
    assert scipy_imports(tmp_path) == {("mod.py", "scipy", None), ("mod.py", "scipy.special", None),
                               ("mod.py", "scipy.integrate", "quad"),
                               ("mod.py", "scipy.integrate", "trapezoid")}
