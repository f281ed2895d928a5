"""The package's settable surface: every parameter with a default, every
dataclass field with a default and every command-line argument is one
more value that tests and benchmarks must cover.  The count may only fall;
a change that adds such a value raises `MAX_SETTABLE` in its own diff.
Every function and class the package exports is one the package itself
uses: an entry point that only tests call belongs in the tests."""

import ast
import inspect
import pathlib

import vomps

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "vomps"

MAX_SETTABLE = 60


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def settable_counts():
    """``(defaulted parameters, defaulted dataclass fields, add_argument
    calls)`` over the package's modules."""
    params = fields = arguments = 0
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                params += len(node.args.defaults) + sum(
                    d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields += sum(isinstance(s, ast.AnnAssign)
                              and s.value is not None for s in node.body)
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "add_argument"):
                arguments += 1
    return params, fields, arguments


def test_settable_values_do_not_grow():
    counts = settable_counts()
    assert all(n > 0 for n in counts), "the count missed a kind"
    assert sum(counts) <= MAX_SETTABLE, (
        f"{sum(counts)} settable values (parameters, fields, arguments = "
        f"{counts}) exceed {MAX_SETTABLE}")


def _references(tree) -> set:
    """Names read in `tree`, as a name or an attribute, outside the
    definition of a function or class of that same name."""
    found = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            enclosing = enclosing | {node.name}
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        if name is not None and name not in enclosing:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return found


def test_exports_are_used_by_the_package():
    exported = {name for name in vomps.__all__
                if inspect.isfunction(getattr(vomps, name))
                or inspect.isclass(getattr(vomps, name))}
    assert "vomps_truncate" in exported, "the exports were not found"
    used = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            used |= _references(ast.parse(path.read_text()))
    assert not exported - used, (
        f"exported but unused in the package: {sorted(exported - used)}")


def test_iteration_modules_call_no_tensordot():
    # every contraction of the truncation loop is the one matrix product
    # that tensordot would build, without its per-call dispatch; models.py
    # contracts once per step or run and may keep it
    for name in ("umps.py", "truncation.py"):
        calls = [node.lineno
                 for node in ast.walk(ast.parse((SRC / name).read_text()))
                 if isinstance(node, ast.Call)
                 and (isinstance(node.func, ast.Attribute)
                      and node.func.attr == "tensordot"
                      or isinstance(node.func, ast.Name)
                      and node.func.id == "tensordot")]
        assert not calls, f"{name} calls tensordot on lines {calls}"


def _function(module: str, name: str) -> ast.FunctionDef:
    tree = ast.parse((SRC / module).read_text())
    (fn,) = [node for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and node.name == name]
    return fn


def test_bond_targets_are_decided_once():
    # a target is an upper bound, capped by one rule: both truncations
    # take their targets from umps._bond_targets, and nothing else checks
    # that targets admit isometric tensors
    for module, name in (("truncation.py", "vomps_truncate"),
                         ("baseline.py", "schmidt_truncate")):
        assigned = [node for node in ast.walk(_function(module, name))
                    if isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Name)
                    and node.value.func.id == "_bond_targets"
                    and [t.id for t in node.targets
                         if isinstance(t, ast.Name)] == ["targets"]]
        assert assigned, f"{name} does not take its targets from " \
            "_bond_targets"
    _function("umps.py", "_bond_targets")
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                callers |= {(path.name, fn.name) for node in ast.walk(fn)
                            if isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Name)
                            and node.func.id == "_check_isometric_targets"}
    assert callers == {("umps.py", "_bond_targets")}, callers


def test_update_step_is_written_once():
    # the tangent-space update (environments, centers, gauges) exists once,
    # as truncation._update, which every loop and measurement calls
    step = ("environments", "compute_centers", "extract_gauges")
    callers = {}
    tree = ast.parse((SRC / "truncation.py").read_text())
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id in step):
                    callers.setdefault(node.func.id, set()).add(fn.name)
    assert callers == {name: {"_update"} for name in step}, callers


def _imports_io(node) -> bool:
    """Whether an import statement takes anything from ``vomps.io``."""
    if isinstance(node, ast.Import):
        return any(alias.name == "vomps.io" for alias in node.names)
    if not isinstance(node, ast.ImportFrom):
        return False
    package = "vomps" if node.level else None
    module = ".".join(filter(None, [package, node.module]))
    return module == "vomps.io" or module == "vomps" and any(
        alias.name == "io" for alias in node.names)


def test_only_io_opens_files():
    # every on-disk format is written and read by io.py
    for path in sorted(SRC.glob("*.py")):
        if path.name == "io.py":
            continue
        opens = [node.lineno
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Call)
                 and (isinstance(node.func, ast.Name)
                      and node.func.id == "open"
                      or isinstance(node.func, ast.Attribute)
                      and node.func.attr == "open")]
        assert not opens, f"{path.name} opens files on lines {opens}"


def test_numerical_modules_do_not_import_io():
    # the formats sit above the numerics: only cli and the package's
    # exports reach io
    for name in ("tensor", "umps", "baseline", "truncation", "models"):
        tree = ast.parse((SRC / f"{name}.py").read_text())
        imports = [node.lineno for node in ast.walk(tree)
                   if _imports_io(node)]
        assert not imports, f"{name}.py imports io on lines {imports}"


def test_package_imports_no_scipy():
    # numpy is the package's only runtime dependency; scipy serves the
    # tests' oracles alone
    imported = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            for module in modules:
                imported.setdefault(module.split(".")[0], []).append(
                    f"{path.name}:{node.lineno}")
    assert "numpy" in imported, "the imports were not found"
    assert "scipy" not in imported, f"scipy imported at {imported['scipy']}"
