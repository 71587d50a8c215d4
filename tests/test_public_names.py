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

A second check holds the same files to every optional parameter: each
must be set by some call (see the section below), and the few kept unset
are in ``ALLOWED_PARAMETERS``.
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


# -- optional parameters ------------------------------------------------------
#
# The same program files must also set every optional parameter.  A
# parameter with a default, of a public function or of a public method or
# ``__init__`` of a public class, counts as set when some call of that name
# (``f(...)``, ``obj.f(...)``, ``Class(...)`` for ``__init__``) passes it by
# keyword, or passes at least as many positional arguments as reach it.  A
# call that spreads ``*args`` or ``**kwargs`` sets every parameter it could.
# Other dunders are skipped, and so are dataclass fields, which are not
# parameters of a written function.  The match is by name alone, so a call
# of another function of the same name can pass for a caller.

ALLOWED_PARAMETERS = {
    "main(argv)": "the console script calls main() and argparse reads sys.argv; the CLI tests pass argv",
    "batched_vs_independent_audit(inner)": "audits the complex64 cycles that solve_dirac runs; the gate's call omits them",
    "dense_solve(rcond_floor)": "dense oracle (in ALLOWED); the solver tests set the singularity bound",
    "element_offset(n_sites)": "the layouts' definition (in ALLOWED); the field tests place Layout 3 elements with it",
}


def _optional_parameters() -> dict[str, tuple[str, str, int | None, str]]:
    """'f(param)', 'Class(param)' or 'Class.f(param)' -> (callee, param, position or None, defining file)."""
    found = {}

    def add(node: ast.FunctionDef, qualified: str, callee: str, where: str, bound: bool) -> None:
        args = node.args
        positional = (args.posonlyargs + args.args)[1 if bound else 0:]
        first_default = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first_default:], start=first_default):
            found[f"{qualified}({arg.arg})"] = (callee, arg.arg, i, where)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                found[f"{qualified}({arg.arg})"] = (callee, arg.arg, None, where)

    for path in sorted(LIBRARY.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                add(node, node.name, node.name, path.name, bound=False)
                continue
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in item.decorator_list)
                if item.name == "__init__":
                    add(item, node.name, node.name, path.name, bound=True)
                elif not item.name.startswith("_"):
                    add(item, f"{node.name}.{item.name}", item.name, path.name, bound=not static)
    return found


def _calls(paths: list[Path]) -> dict[str, list[tuple[float, set[str] | None]]]:
    """Callee name -> (positional count, keyword names or None for **kwargs) of each call in the files."""
    calls = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            if name is None:
                continue
            positional = float("inf") if any(isinstance(a, ast.Starred) for a in node.args) else len(node.args)
            keywords = None if any(k.arg is None for k in node.keywords) else {k.arg for k in node.keywords}
            calls.setdefault(name, []).append((positional, keywords))
    return calls


def _is_set(calls: dict, callee: str, param: str, position: int | None) -> bool:
    return any(
        keywords is None or param in keywords or (position is not None and positional > position)
        for positional, keywords in calls.get(callee, ())
    )


def test_every_optional_parameter_has_a_caller_that_sets_it():
    calls = _calls(_program_files())
    unset = [
        f"{found[-1]}: {key}"
        for key, found in _optional_parameters().items()
        if key not in ALLOWED_PARAMETERS and not _is_set(calls, *found[:3])
    ]
    assert not unset, "optional parameters that no call in the program sets: " + ", ".join(unset)


def test_every_allowed_parameter_still_exists_and_is_still_unset():
    # an entry whose parameter was deleted, or that gained a caller, is stale
    params = _optional_parameters()
    calls = _calls(_program_files())
    stale = [key for key in ALLOWED_PARAMETERS if key not in params or _is_set(calls, *params[key][:3])]
    assert not stale, f"stale ALLOWED_PARAMETERS entries: {stale}"
