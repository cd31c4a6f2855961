"""Every public name in the package is used or documented.

A public top-level function or class of `src/pmpkit/*.py` must be
referenced somewhere in `src/`, as a name or an attribute (a docstring or
an import alone does not count), or be named in an inline code span of
README.md, whose line says why it stays.
"""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "pmpkit")


def public_names_and_references():
    public, referenced = [], set()
    for fname in sorted(os.listdir(SRC)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(SRC, fname)) as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                public.append((fname[:-3], node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return public, referenced


def readme_names():
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = re.sub(r"```.*?```", "", fh.read(), flags=re.S)
    names = set()
    for span in re.findall(r"`([^`\n]+)`", text):
        names.update(re.findall(r"[A-Za-z_]\w*", span))
    return names


def test_every_public_name_is_used_or_documented():
    public, referenced = public_names_and_references()
    documented = readme_names()
    loose = ["%s.%s" % (mod, name) for mod, name in public
             if name not in referenced and name not in documented]
    assert not loose, "public names that nothing in src/ uses and README.md never names: " + \
        ", ".join(loose)


def unused_imports(source):
    """Names a module imports and never reads; `from __future__` imports
    are exempt."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_import_check_is_not_vacuous():
    source = "from __future__ import annotations\nimport os, numpy.linalg\nfrom a import b as c, d\nd()\n"
    assert unused_imports(source) == ["os", "numpy", "c"]


def test_no_unused_imports():
    # __init__.py re-exports the package's modules, so it is exempt
    loose = []
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py") and fname != "__init__.py":
            with open(os.path.join(SRC, fname)) as fh:
                loose += ["%s: %s" % (fname, name) for name in unused_imports(fh.read())]
    assert not loose, "unused imports: " + ", ".join(loose)
