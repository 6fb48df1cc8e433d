"""The public API holds only what the program itself uses.

Every public function or method defined in src/fusim must be used somewhere
in src/ or perfbench/; a function that only tests call belongs in the tests.
A top-level function counts as used only through the module that defines it
(evalkit.report_to_json says nothing about a fedcccu.report_to_json): as a
`module.name` reference, a `from .module import name` import, or a bare use
inside the defining module.  A method counts as used when an attribute of its
name is accessed anywhere (`obj.name`); a parameter or variable of the same
name is no use of it.  The numeric oracles are the one exception: the
engine's batched paths are checked against them.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ORACLES = {"attribute_unit", "gradient_wrt_unit", "forward_with_scaled_unit"}


def public_defs(tree):
    """(name, line, is_method) of each public top-level function and public
    class method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.lineno, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.lineno, True


def fusim_source(node: ast.ImportFrom) -> str | None:
    """The fusim module a `from ... import` takes names from, "" for the
    package itself (`from . import nncore`), None outside fusim."""
    module = node.module or ""
    if node.level == 0 and module != "fusim" and not module.startswith("fusim."):
        return None
    return "" if module in ("", "fusim") else module.rsplit(".", 1)[-1]


def accessed_attributes(tree):
    """The name of every attribute access (`obj.name`) in the code."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr


def function_uses(module: str | None, tree):
    """(defining module, name) of each use of a fusim module's function in a
    file of `module`, None for a file outside src/fusim."""
    aliases = {}   # local name of an imported fusim module -> the module
    for node in ast.walk(tree):
        source = fusim_source(node) if isinstance(node, ast.ImportFrom) else None
        for alias in node.names if source is not None else ():
            if source:
                yield source, alias.name
            else:
                aliases[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            yield aliases[node.value.id], node.attr
        elif isinstance(node, ast.Name) and module is not None:
            yield module, node.id


def unused_public_functions(root: Path) -> list[str]:
    sources = sorted((root / "src").rglob("*.py")) + sorted((root / "perfbench").rglob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sources}
    attributes = {name for tree in trees.values() for name in accessed_attributes(tree)}
    uses = {use for path, tree in trees.items() for use in function_uses(
        path.stem if path.parent.name == "fusim" else None, tree)}
    return [f"{path.relative_to(root)}:{line} {name}"
            for path, tree in trees.items() if path.parent.name == "fusim"
            for name, line, is_method in public_defs(tree)
            if name not in ORACLES
            and (name.rsplit(".", 1)[-1] not in attributes if is_method
                 else (path.stem, name) not in uses)]


def test_every_public_function_is_used_outside_the_tests():
    unused = unused_public_functions(ROOT)
    assert unused == [], "public but used only by tests: " + ", ".join(unused)
