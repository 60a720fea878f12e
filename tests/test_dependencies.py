"""The scipy surface of src/lmoll: every import of scipy, read from the
source with ast, so that a new dependency cannot slip in unnoticed, and
the commands that load scipy at run time: voronoi-check alone.  Also that
the CLI's import loads no numpy.polynomial, and that every public function,
class, method and property of src/lmoll has a caller in the library or is a
named second route: reference forms that only tests call belong in
tests/oracles.py."""
from __future__ import annotations

import ast
import json
import os
import pathlib
import subprocess
import sys
from collections import Counter

import lmoll

SRC = pathlib.Path(lmoll.__file__).parent
GOLDEN_PAYLOADS = pathlib.Path(__file__).parent / "golden" / "cli_payloads.json"

# (module file, scipy module, imported name): the two Bessel kernels of the
# Voronoi dual sums, imported on first use (voronoi._bind_bessel), not when
# lmoll.voronoi is imported
ALLOWED = {
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


def _fresh(code: str, *args: str) -> str:
    """stdout of code run in a fresh interpreter on this checkout's lmoll:
    what a CLI user pays, whatever the tests have loaded."""
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    return out.stdout


def test_cli_import_loads_no_scipy():
    code = ("import sys, lmoll, lmoll.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _fresh(code).strip() == "[]"


def test_cli_import_loads_no_numpy_polynomial():
    # voronoi's Gauss-Legendre rule is written out as literals
    code = ("import sys, lmoll, lmoll.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))")
    assert _fresh(code).strip() == "[]"


# runs each argv in argv[1] through lmoll.cli.main, output to argv[2], and
# prints the scipy modules loaded after each
_RUN_COMMANDS = """
import contextlib, io, json, sys
from lmoll.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            rc = main(argv if argv == ["--version"] else argv + ["--out", sys.argv[2]])
        except SystemExit as e:
            rc = e.code
    print(json.dumps([argv[0], rc, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def test_only_voronoi_check_loads_scipy(tmp_path):
    golden = json.loads(GOLDEN_PAYLOADS.read_text())
    voronoi = "voronoi-check --D 5 --c 3 --a 2 --bump-lo 50 --bump-hi 4850"
    # one cheap argv per other command, then the Voronoi one last
    others = {}
    for key in golden:
        others.setdefault(key.split()[0], key.split())
    del others["voronoi-check"]
    assert set(others) == {"census", "moments", "afe-check", "identity-suite", "shifted-conv"}
    argvs = [["--version"], *others.values(), voronoi.split()]
    out = tmp_path / "payload"
    lines = [json.loads(line) for line in _fresh(_RUN_COMMANDS, json.dumps(argvs), str(out)).splitlines()]
    assert [(cmd, rc) for cmd, rc, _ in lines] == [(a[0], 0) for a in argvs]
    assert all(loaded == [] for _, _, loaded in lines[:-1])
    assert "scipy.special" in lines[-1][2]
    assert out.read_bytes() == golden[voronoi].encode()


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


# public names that nothing else in src/lmoll calls, kept on purpose: the
# second routes that cross-check a production route (first moment, singular
# series, shifted convolution, Euler product, lacunary divisor sum), the
# series and Dirichlet series the tests hold them to, and eval_weight, which
# perfbench/tracer.py patches by name
SECOND_ROUTES = (
    "first_moment_by_orthogonality",
    "singular_series_factored",
    "singular_series_r_sum",
    "shifted_conv_r_decomposed",
    "euler_product",
    "lacunary_divisor_sum",
    "singular_series",
    "dirichlet_series_G",
    "eval_weight",
)


def _attribute_reads(node: ast.AST) -> Counter:
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def uncalled_public_names(root: pathlib.Path = SRC) -> set[tuple[str, str]]:
    """(module file, name) of each public top-level function or class of
    root's modules (__init__.py aside) that no other top-level statement of
    them reads, by name, as an attribute, or under an import alias; and
    (module file, "Class.name") of each public method or property of a
    public class whose name no attribute read outside its own body uses."""
    defs, reads, methods, attrs = {}, [], {}, Counter()
    for path in sorted(root.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        attrs += _attribute_reads(tree)
        alias = {a.asname: a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 for a in node.names if a.asname}
        for stmt in tree.body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names |= {node.id, alias.get(node.id, node.id)}
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
            reads.append((stmt, names))
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")):
                defs[stmt.name] = (path.name, stmt)
            if isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_"):
                methods |= {f"{stmt.name}.{m.name}": (path.name, m) for m in stmt.body
                            if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")}
    return ({(file, name) for name, (file, stmt) in defs.items()
             if not any(name in names for other, names in reads if other is not stmt)}
            | {(file, name) for name, (file, m) in methods.items()
               if attrs[m.name] == _attribute_reads(m)[m.name]})


def test_every_public_name_has_a_caller_or_is_a_second_route():
    uncalled = uncalled_public_names()
    assert {name for _, name in uncalled} <= set(SECOND_ROUTES), sorted(uncalled)
    # no stale entry: each one is still defined and still has no caller
    assert {name for _, name in uncalled} == set(SECOND_ROUTES)


def test_caller_scan_sees_names_attributes_and_aliases(tmp_path):
    (tmp_path / "a.py").write_text(
        "from .b import g as h\n"
        "def f():\n"
        "    return f()\n"
        "def used():\n"
        "    return h(mod.attr)\n"
        "class K:\n"
        "    def read(self):\n"
        "        return self.recurse\n"
        "    @property\n"
        "    def recurse(self):\n"
        "        return self.recurse\n"
        "    def stored(self):\n"
        "        pass\n"
        "    def _private(self):\n"
        "        pass\n"
        "class _Hidden:\n"
        "    def unread(self):\n"
        "        pass\n"
        "x = K\n"
        "y = _Hidden\n")
    (tmp_path / "b.py").write_text(
        "def g():\n    return used().read()\ndef attr(k):\n    k.stored = 1\n")
    (tmp_path / "__init__.py").write_text("from .a import f\n")
    assert uncalled_public_names(tmp_path) == {("a.py", "f"), ("a.py", "K.stored")}
