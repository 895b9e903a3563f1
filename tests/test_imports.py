"""The package's imports: the operator modules import one way, radial <-
quadrature <- radial_ops, no file under src imports scipy, and no file
imports a name that it never reads."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fracradial"


def imported_modules(path):
    """Every dotted name that the file at path imports: the modules, and for
    `from m import n` both m and m.n."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = f"fracradial.{module}".rstrip(".")
            found |= {module} | {f"{module}.{alias.name}" for alias in node.names}
    return found


def test_only_radial_ops_imports_the_quadrature():
    """The quadrature is read through radial_ops alone, and the representation
    imports neither module that is built on it."""
    importers = sorted(path.name for path in PACKAGE.glob("*.py")
                       if "fracradial.quadrature" in imported_modules(path))
    assert importers == ["radial_ops.py"]
    assert not imported_modules(PACKAGE / "radial.py") \
        & {"fracradial.quadrature", "fracradial.radial_ops"}


def test_no_file_under_src_imports_scipy():
    """The runtime install is numpy alone.  An import inside a function runs
    only on its path, an error path say, so every import statement counts."""
    importers = [f"{path.relative_to(ROOT)}: {name}"
                 for path in sorted((ROOT / "src").rglob("*.py"))
                 for name in sorted(imported_modules(path))
                 if name.partition(".")[0] == "scipy"]
    assert not importers, "\n".join(importers)


def unused_imports(path):
    """"file:line: name" for each name that the file at path imports and never
    reads.  A name in the file's __all__ counts as read, and an alias whose
    own line carries "# noqa: F401" is exempt."""
    text = path.read_text()
    tree = ast.parse(text)
    lines = text.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            read |= set(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) \
                and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.relative_to(ROOT)}:{alias.lineno}: {name}")
    return unused


def test_no_file_imports_a_name_it_never_reads():
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    unused = [line for path in paths for line in unused_imports(path)]
    assert not unused, "\n".join(unused)
