"""Every public name in ``src/lqcdlab`` has a caller in the program.

The check is lexical and coarse.  It parses the library with ``ast`` and
collects each public top-level function and class and each public method
of a top-level class.  It then collects the identifiers that the program
uses: the library itself (re-exports in ``__init__`` do not count), the
benchmark (``bench/*.py`` and ``bench/ttsbench``), ``tools`` and the
acceptance gate.  A function or class counts as used when its name appears
as a name, an attribute or an import there; a method when its name
appears as an attribute.  A string constant made only of dotted
identifiers counts as well, since the benchmark patches and reports names
by string (``"SchurOperator.merge"``); prose and docstrings do not.  Any
two names that are spelled alike are one name here, so the test finds
names that nothing uses, not every name that only tests use.

Names that the benchmark calls or patches pass by that caller, so the
shims that only the benchmark reads stay until the benchmark stops
reading them.  The few names kept without a caller are in
``ALLOWED``, each with its reason.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "lqcdlab"

ALLOWED = {
    "read_spinor": "snapshot reader; its caller is the planned input.path key, from which solve reads what gen-fields wrote",
    "read_gauge": "snapshot reader; its caller is the planned input.path key, from which solve reads what gen-fields wrote",
    "read_clover": "snapshot reader; its caller is the planned input.path key, from which solve reads what gen-fields wrote",
    "element_offset": "the layouts' executable definition, which the field tests pin",
    "dense_solve": "dense oracle, reference plumbing for the solver tests",
    "dense_lstsq": "dense oracle, reference plumbing for the solver tests",
    "matrix_op": "wraps a dense matrix as an operator, reference plumbing for the solver tests",
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _public_names() -> dict[str, str]:
    """Qualified public name -> defining file, for functions, classes and methods."""
    found = {}
    for path in sorted(LIBRARY.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            found[node.name] = path.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        found[f"{node.name}.{item.name}"] = path.name
    return found


def _program_files() -> list[Path]:
    library = [p for p in sorted(LIBRARY.glob("*.py")) if p.name != "__init__.py"]
    bench = sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "bench" / "ttsbench").glob("*.py"))
    return library + bench + sorted((ROOT / "tools").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]


def _references(paths: list[Path]) -> tuple[set[str], set[str]]:
    """(names and imports, attributes and dotted strings) that the files use."""
    names, attrs = set(), set()
    for path in paths:
        tree = ast.parse(path.read_text())
        docstrings = {
            id(node.body[0].value)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr) and isinstance(node.body[0].value, ast.Constant)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in docstrings and _DOTTED.fullmatch(node.value)):
                attrs.update(node.value.split("."))
    return names, attrs


def test_every_public_name_has_a_caller_in_the_program():
    names, attrs = _references(_program_files())
    unused = []
    for qualified, where in _public_names().items():
        last = qualified.rsplit(".", 1)[-1]
        used = last in attrs or ("." not in qualified and last in names)
        if not used and qualified not in ALLOWED:
            unused.append(f"{where}: {qualified}")
    assert not unused, "public names without a caller in the program: " + ", ".join(unused)


def test_every_allowed_name_still_exists_and_still_lacks_a_caller():
    # an entry whose name was deleted, or that gained a caller, is stale
    public = _public_names()
    names, attrs = _references(_program_files())
    stale = [name for name in ALLOWED if name not in public or name in names or name in attrs]
    assert not stale, f"stale ALLOWED entries: {stale}"
