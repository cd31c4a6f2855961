"""One walk over a grammar tree, and one rule for how deep a tree may be.

Every pass of `pmpkit.grammar` that computes a node from its operands
(the derivative, the degree in u, the exactness scan, code emission, the
state renaming of the extension) is a loop over `grammar._nodes`, which
lists each node of a tree DAG once by identity with its operands first.
So no pass recurses on a tree, and the deepest tree the grammar takes is
one explicit rule, `grammar._DEPTH` levels, whatever the caller's stack,
as long as Python's own parser reads the text.

A scan of the source holds that no pass recurses, that `ast.walk` is not
used, and that the only explicit-stack loops are the walk itself, the
validation (which names the first bad token in tree order) and the shape
key of compiled forms.  The loops are held to the recursive forms they
replaced (`oracles.derivative_recursive`, `oracles.u_degree_recursive`,
`oracles.exact_scan`).
"""

import ast
import os

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from pmpkit import cli, grammar
from test_cli import lqr_problem, write_problem
from test_grammar_codegen import forget_compiles
from test_grammar_properties import K, M, render, trees

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "pmpkit")


def _functions(tree):
    """(qualified name, node, whether a method) of every function of a
    module, methods and nested functions included."""
    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if isinstance(child, ast.FunctionDef):
                    yield name, child, in_class
                yield from visit(child, name + ".", isinstance(child, ast.ClassDef))
            else:
                yield from visit(child, prefix, in_class)
    return list(visit(tree, "", False))


def _calls_itself(fn, method):
    # a function calls itself by its name, a method as self.name
    for n in ast.walk(fn):
        if isinstance(n, ast.Call):
            f = n.func
            if (method and isinstance(f, ast.Attribute) and f.attr == fn.name
                    and isinstance(f.value, ast.Name) and f.value.id == "self"
                    or not method and isinstance(f, ast.Name) and f.id == fn.name):
                return True
    return False


def self_calls(tree):
    """Names of the functions of tree that call themselves, from their own
    body or a function nested in it."""
    return sorted(name for name, fn, method in _functions(tree) if _calls_itself(fn, method))


def stack_loops(tree):
    """Names of the outermost functions of tree holding an explicit-stack
    loop: `while s:` whose body pops from s."""
    found = set()
    for top in tree.body:
        for fn in ([top] if isinstance(top, ast.FunctionDef) else
                   [n for n in top.body if isinstance(n, ast.FunctionDef)]
                   if isinstance(top, ast.ClassDef) else []):
            for node in ast.walk(fn):
                if (isinstance(node, ast.While) and isinstance(node.test, ast.Name)
                        and any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                                and n.func.attr == "pop"
                                and isinstance(n.func.value, ast.Name)
                                and n.func.value.id == node.test.id
                                for b in node.body for n in ast.walk(b))):
                    found.add(fn.name)
    return found


def ast_walks(tree):
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "walk"
            and isinstance(node.value, ast.Name) and node.value.id == "ast"]


def grammar_source():
    with open(os.path.join(SRC, "grammar.py")) as fh:
        return ast.parse(fh.read())


def test_guards_see_the_forms_they_forbid():
    source = ast.parse(
        "def f(n):\n    return f(n - 1)\n"
        "def g(n):\n    def h(m):\n        return g(m)\n    return h(n)\n"
        "def walk(t):\n    stack = [t]\n    while stack:\n        node = stack.pop()\n"
        "    return [n for n in ast.walk(t)]\n"
        "class C:\n    def m(self, s):\n        while s:\n            s.pop()\n"
        "    def n(self):\n        return self.n() + n()\n    def compile(self):\n"
        "        return compile()\n")
    assert self_calls(source) == ["C.n", "f", "g"]
    assert stack_loops(source) == {"walk", "m"}
    assert ast_walks(source) == [11]


def test_no_grammar_pass_recurses_or_walks_by_itself():
    tree = grammar_source()
    assert self_calls(tree) == []
    assert ast_walks(tree) == []
    assert stack_loops(tree) == {"_nodes", "_check", "_shape"}


def postorder(roots):
    """Each node of the trees roots once by identity, operands first, left
    to right, by recursion."""
    seen, order = set(), []

    def visit(node):
        if id(node) in seen:
            return
        seen.add(id(node))
        for child in grammar._children(node):
            visit(child)
        order.append(node)

    for root in roots:
        visit(root)
    return order


@settings(max_examples=300, deadline=None, derandomize=True)
@given(trees(), st.integers(0, M - 1))
def test_the_walk_lists_each_node_once_operands_first(t, j):
    # a tree with its derivatives shares subtrees between them
    body = grammar._tree(render(t), M, K, "expression")
    roots = [body] + [oracles.derivative_recursive(body, i) for i in range(M)]
    order = grammar._nodes(roots)
    assert [id(n) for n in order] == [id(n) for n in postorder(roots)]
    seen = {}
    first = grammar._nodes(roots[:j + 1], seen)
    rest = grammar._nodes(roots[j + 1:], seen)
    assert [id(n) for n in first + rest] == [id(n) for n in order]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(trees())
def test_the_loops_give_what_the_recursions_gave(t):
    body = grammar._tree(render(t), M, K, "expression")
    assert grammar._u_degree(body) == oracles.u_degree_recursive(body)
    assert grammar._exact(body) == oracles.exact_scan(body)
    if grammar._exact(body):
        for j in range(M):
            assert ast.dump(grammar._derivative(body, j)) == \
                ast.dump(oracles.derivative_recursive(body, j))


def nested_sum(levels):
    """A sum of `levels` terms, a tree of that many levels."""
    return " + ".join(["x0"] * levels)


def down(frames, fn):
    """fn(), called that many frames further down the stack."""
    return fn() if frames == 0 else down(frames - 1, fn)


def test_a_sum_as_deep_as_the_rule_allows_compiles():
    forget_compiles()
    f, df, degree = grammar.compile_dynamics((nested_sum(grammar._DEPTH),), 1, 1)
    assert f([2.0], [0.0]) == [2.0 * grammar._DEPTH]
    assert df([2.0], [0.0]).tolist() == [[float(grammar._DEPTH)]]
    assert degree == 0
    gradient, _ = grammar.compile_gradient(nested_sum(grammar._DEPTH), 1, 1)
    assert gradient([2.0], [0.0]) == [float(grammar._DEPTH)]


def test_one_level_more_exits_2_and_names_the_expression(tmp_path, capsys):
    data = lqr_problem()
    data["dynamics"] = {"expressions": [nested_sum(grammar._DEPTH + 1)]}
    data["control"] = {"switch_times": [], "values": [[0.0]]}
    path = write_problem(tmp_path / "p.json", data)
    rc = cli.main(["simulate", "--problem", path, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "dynamics.expressions[0] nests too deeply" in err and "Traceback" not in err


def test_the_first_bad_token_is_named_before_the_depth():
    with pytest.raises(grammar.ProblemError, match="unknown identifier 'y'"):
        grammar.compile_dynamics((nested_sum(grammar._DEPTH) + " + y",), 1, 1)


def test_the_depth_that_compiles_does_not_depend_on_the_callers_stack():
    # the recursive passes refused anything past 591 levels 400 frames
    # below the top of a script
    forget_compiles()
    f, _, _ = down(400, lambda: grammar.compile_dynamics((nested_sum(900),), 1, 1))
    assert f([1.0], [0.0]) == [900.0]
