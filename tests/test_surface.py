"""The package's settable surface: every parameter with a default, every
dataclass field with a default and every command-line argument is one
more value that tests and benchmarks must cover.  The count may only fall;
a change that adds such a value raises `MAX_SETTABLE` in its own diff."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "vomps"

MAX_SETTABLE = 80


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
