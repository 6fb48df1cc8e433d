"""The public API holds only what the program itself uses.

Every public function or method defined in src/fusim must be referenced by
name somewhere in src/ or perfbench/; a function that only tests call
belongs in the tests.  The numeric oracles are the one exception: the
engine's batched paths are checked against them.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ORACLES = {"attribute_unit", "gradient_wrt_unit", "forward_with_scaled_unit"}


def public_defs(tree):
    """(name, line) of each public top-level function and public class method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.lineno
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.lineno


def referenced_names(tree):
    """Every identifier the code uses: names, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_public_function_is_used_outside_the_tests():
    sources = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sources}
    used = {name for tree in trees.values() for name in referenced_names(tree)}
    unused = [f"{path.relative_to(ROOT)}:{line} {name}"
              for path, tree in trees.items() if path.parent.name == "fusim"
              for name, line in public_defs(tree)
              if name.rsplit(".", 1)[-1] not in used | ORACLES]
    assert unused == [], "public but used only by tests: " + ", ".join(unused)
