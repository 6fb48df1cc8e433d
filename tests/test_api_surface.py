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

Likewise every exception class defined in src/fusim must be told apart by
src/ itself: named in an `except` clause there that does more than raise
another error, or with an attribute its own methods set (`self.row = ...`)
read there.  A class nothing catches or reads is one more name for
ValueError, and a clause whose body is one raise only renames it.  So src/fusim defines two, ConfigError
(a fault in what the user supplies; the command line exits 1 on it) and
NNError (fedsim reads the stack row it names).
"""
import ast
import builtins
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


def exception_classes(trees):
    """(path, line, name, own attributes) of each class in the trees that
    derives, directly or through another of them, from a builtin exception."""
    classes = {node.name: (path, node) for path, tree in trees.items()
               for node in tree.body if isinstance(node, ast.ClassDef)}
    found: dict[str, tuple] = {}
    while True:
        new = {name: (path, node) for name, (path, node) in classes.items()
               if name not in found and any(
                   isinstance(base, ast.Name) and (base.id in found or isinstance(
                       getattr(builtins, base.id, None), type) and issubclass(
                       getattr(builtins, base.id), BaseException))
                   for base in node.bases)}
        if not new:
            return [(path, node.lineno, name, {
                target.attr for item in ast.walk(node) if isinstance(item, ast.Assign)
                for target in item.targets if isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name) and target.value.id == "self"})
                for name, (path, node) in found.items()]
        found.update(new)


def caught_names(tree):
    """The name of every class an `except` clause names (`except A`,
    `except (A, m.B)`), unless the clause's body is one raise."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None and not (
                len(node.body) == 1 and isinstance(node.body[0], ast.Raise)):
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            for t in types:
                if isinstance(t, (ast.Name, ast.Attribute)):
                    yield t.id if isinstance(t, ast.Name) else t.attr


def test_every_exception_class_is_caught_or_read_in_src():
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in sorted((ROOT / "src").rglob("*.py"))}
    caught = {name for tree in trees.values() for name in caught_names(tree)}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    classes = exception_classes(trees)
    idle = [f"{path.relative_to(ROOT)}:{line} {name}" for path, line, name, own in classes
            if name not in caught and not own & read]
    assert idle == [], "exception classes src/ neither catches nor reads: " + ", ".join(idle)
    assert sorted(name for *_, name, _ in classes) == ["ConfigError", "NNError"]
