"""Every public name in the package is used or documented, every private
one is used, and no module imports what it does not read.

A public top-level function or class of `src/pmpkit/*.py` must be
referenced somewhere in `src/`, as a name or an attribute (a docstring or
an import alone does not count), or be named in an inline code span of
README.md, whose line says why it stays.  A private top-level name (a
function, class or assignment whose name starts with one underscore) must
be referenced in `src/` outside the statement that defines it: by name in
its own module or in one that imports it, or as an attribute.  The
modules of `src/` and of `tests/` import no name they never read.  The
modules of `src/` import each other in layers: no cycle, and the code
generator `grammar` imports none of the modules that consume it.
"""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "pmpkit")
TESTS = os.path.join(ROOT, "tests")


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
    # the package's __init__.py re-exports its modules, so it is exempt
    loose = []
    for folder in (SRC, TESTS):
        for fname in sorted(os.listdir(folder)):
            if fname.endswith(".py") and not (folder == SRC and fname == "__init__.py"):
                with open(os.path.join(folder, fname)) as fh:
                    loose += ["%s: %s" % (fname, name) for name in unused_imports(fh.read())]
    assert not loose, "unused imports: " + ", ".join(loose)


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def unused_private_names(sources):
    """(module, name) of each private top-level name of the modules
    sources, {module: source text}, that no statement but its own
    definition reads; a module's `from .module import name` carries a read
    of name to that module."""
    defined, reads = {}, set()
    for module, source in sources.items():
        tree = ast.parse(source)
        imported = {alias.asname or alias.name: (node.module, alias.name)
                    for node in tree.body if isinstance(node, ast.ImportFrom) and node.level
                    for alias in node.names}
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                own = {top.name}
            elif isinstance(top, (ast.Assign, ast.AnnAssign)):
                targets = top.targets if isinstance(top, ast.Assign) else [top.target]
                own = {t.id for t in targets if isinstance(t, ast.Name)}
            else:
                own = set()
            defined.update({(module, name): top for name in own if _private(name)})
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id not in own:
                    reads.add(imported.get(node.id, (module, node.id)))
                elif isinstance(node, ast.Attribute):
                    reads.add((None, node.attr))
    return sorted(key for key in defined if key not in reads and (None, key[1]) not in reads)


def test_unused_private_name_check_is_not_vacuous():
    sources = {"a": "_A = 1\n_B = _A\ndef _f():\n    return _f()\n"
                    "def _g():\n    return b._h\nclass _C:\n    pass\n",
               "b": "from .a import _g as g\n_h = 2\n_i = g\n"}
    assert unused_private_names(sources) == [("a", "_B"), ("a", "_C"), ("a", "_f"),
                                             ("b", "_i")]


def src_sources():
    """{module: source text} of the modules of `src/`."""
    sources = {}
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname)) as fh:
                sources[fname[:-3]] = fh.read()
    return sources


def test_every_private_name_is_used():
    loose = ["%s.%s" % key for key in unused_private_names(src_sources())]
    assert not loose, "private names that nothing in src/ reads: " + ", ".join(loose)


# the modules that consume the code generator's forms, which it must not
# import
GRAMMAR_CONSUMERS = {"shooting", "perturbations", "reachable", "cli"}


def import_layer_faults(sources):
    """The faults of the imports among the modules sources, {module: source
    text}: each module of GRAMMAR_CONSUMERS that grammar imports, and each
    cycle, as the modules that close it.  An import is `from .module import
    ...` or `from . import module`, at the top of a module or in a
    function."""
    graph = {}
    for module, source in sources.items():
        graph[module] = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.level:
                graph[module] |= {node.module} if node.module else {a.name for a in node.names}
    faults = ["grammar imports " + name
              for name in sorted(graph.get("grammar", set()) & GRAMMAR_CONSUMERS)]
    done, path = set(), []

    def visit(module):
        if module in path:
            faults.append("cycle " + " -> ".join(path[path.index(module):] + [module]))
        elif module not in done:
            path.append(module)
            for name in sorted(graph.get(module, ())):
                visit(name)
            done.add(path.pop())

    for module in sorted(graph):
        visit(module)
    return faults


def test_import_layer_check_is_not_vacuous():
    sources = {"grammar": "from .shooting import _jumped\n",
               "shooting": "def f():\n    from .pmp import g\n",
               "pmp": "from . import grammar, flows\n", "flows": ""}
    assert import_layer_faults(sources) == ["grammar imports shooting",
                                            "cycle grammar -> shooting -> pmp -> grammar"]


def test_modules_import_each_other_in_layers():
    faults = import_layer_faults(src_sources())
    assert not faults, "imports out of layer: " + ", ".join(faults)

