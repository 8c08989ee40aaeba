"""Guard against regrowth: every top-level function, class and constant of
the package is either exported by `horpo/__init__.py` or used somewhere in
the package outside its own definition."""
import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "horpo"


def _trees():
    return {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}


def _exported(init: ast.Module) -> set[str]:
    return {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _definitions(tree: ast.Module):
    """(name, node) for each top-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def _uses(node: ast.AST) -> set[str]:
    """Names loaded, or read as attributes, anywhere in `node`."""
    out: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def test_every_top_level_name_is_exported_or_used():
    trees = _trees()
    exported = _exported(trees["__init__.py"])
    # the names each top-level statement of the package uses
    uses = [(node, _uses(node)) for tree in trees.values() for node in tree.body]
    unused = []
    for module, tree in trees.items():
        for name, defn in _definitions(tree):
            if name.startswith("__") or name in exported:
                continue
            if not any(name in names for node, names in uses if node is not defn):
                unused.append("%s.%s" % (module[:-3], name))
    assert unused == []
