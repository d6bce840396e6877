import ast
from pathlib import Path

import twistclass

#: the names ``from twistclass import *`` exports; removing or adding one is
#: an API change, argued in CHANGES.md, and edits this list with it
PUBLIC_API = [
    "AIRPLANE", "Alphabet", "BoundExceeded", "BranchAmbiguity", "CORABBIT",
    "ClassLabel", "Diverged", "Endo", "F14", "F34", "F512", "FI", "F_MINUS_I",
    "GenWord", "MooreDiagram", "NotContracting", "PunctureProximity", "RABBIT",
    "Recursion", "WreathElem", "act", "action_equal", "automata_distinct",
    "homotopy_shift", "is_kernel_element", "is_trivial_action", "moore_diagram",
    "nucleus", "obstructed", "phi_apply", "restrict", "substitute_recursion",
    "twist_recursion",
]


def test_public_api_is_pinned():
    names = twistclass.__all__
    assert sorted(names) == PUBLIC_API
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(twistclass, name) is not None, name


def test_every_imported_name_is_used():
    # an import that nothing in its module reads is a leftover of a deletion
    unused = []
    for path in sorted(Path(twistclass.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name.split(".")[0]: node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{line} {name}"
            for name, line in imported.items()
            if name not in used
        ]
    assert unused == []



def _defined_names(node: ast.stmt) -> list[str]:
    """Names a module-level statement binds by definition or assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def test_every_private_module_name_is_read():
    # a private module-level name that nothing in the package reads is a
    # leftover of a deletion
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(twistclass.__file__).parent.glob("*.py"))
    }
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute)
    }
    private = [
        (f"{name}:{node.lineno}", target)
        for name, tree in trees.items()
        for node in tree.body
        for target in _defined_names(node)
        if target.startswith("_") and not target.startswith("__")
    ]
    assert len(private) > 50  # the walk found the package's helpers
    assert [f"{where} {t}" for where, t in private if t not in read] == []
