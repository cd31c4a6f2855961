"""The expression grammar of problem files, compiled to generated functions.

An expression is a string over x0..x{m-1} (states), u0..u{k-1} (controls)
and numbers, with +, -, *, /, ^ (or **), unary signs and the functions sin,
cos and exp.  It is parsed by `ast`, validated node by node, differentiated
symbolically in x, and read for its degree in u.

Evaluation goes through generated Python functions: one per dynamics
vector, cost, or exact Jacobian; one loop of RK4 steps of the dynamics over
the control runs of a path, and its endpoint form; for shooting, the
stage and the RK4 step of the coupled (x, p) field x' = f, p' = c dF/dx -
(df/dx)^T p, as f and `pmp._costate` compute it; for `pmp.adjoint_flows`,
one loop of its discrete-adjoint steps of an m x r block of covectors over
the control runs of a path; for the box maximizer, its probe values of p0 F + p . f and
their quadratic fit in one straight-line function; and for shooting, one
loop over the steps of an arc and one trial step (`arc_loop`), which call
the coupled step, make the maximizer's decision (from the probe fit on a
box where that is generated, else by calling the maximizer) and make the
jump test.  Every pairing of a covector with a rate or a
Jacobian column is summed in order from 0.0
(`flows._dot`), in the generated code as in the package's own, so their
bits depend on no BLAS.  The generated code is written by running the
package's own code once on symbolic operands: `flows.rk4_step` for every
step's stage and combination arithmetic, `flows._recorded_step` for the
adjoint's retraced forward step, `pmp._costate_rate` for (df/dx)^T p,
`pmp._h_sum` for the probe values of H, `pmp._fit_quadratic` for their
fit and `pmp._model_tol` and `pmp._axis_maxima` for the decision from it,
with their comparison and axis helpers called by name; an operation met
again on the same operands is computed once.  Each is emitted as Python
source text into templates that read as the code they write, from the
validated grammar tree, one assignment per grammar node in the order a
tree walk evaluates them (left operand, right operand, operation; a
subtree that a derivative shares is assigned once per entry); the user's
text is never evaluated.  Numbers are bound through a tuple, so nothing
is folded (the package's own numbers are literals, written back with
their bits, each met with a variable).  Each compile has a file name of
its own, `<pmpkit.grammar NAME N>`, which profilers show, and its text is
held in `linecache` while the compile is kept, where tracebacks and
`inspect.getsource` find it.  A state or control reads as
`float(x[i])` or `float(u[i])`, from a list or an array, a vector is a
list of floats, every generated function of (x, u), the scalar
expressions of a cost included, is marked `on_lists` (it takes x as a list
of floats), a power goes through `_real_pow` unless its exponent is a
number with an integral value (a float to such a power is real, and `**`
is written inline), and each vector component and Jacobian entry has its
own `try` that turns overflow, division by zero and math domain errors
into NaN, so the integrators' blow-up checks own the diagnostic.  No pass
over a tree recurses (each is a loop over one walk, `_nodes`) and the
generated code is straight-line, so a tree of up to `_DEPTH` levels
compiles wherever Python's parser reads it.  Generated code is kept per
process in two memos: the public entry points' recent results, keyed on
their texts, and behind them `_FORMS`, each generated form compiled once
per shape of its trees (`_shaped`): trees that differ only in numbers
other than a power's exponent share its code, with their own numbers
bound, and the arc loop, which reads no tree, is kept once per m, k, box
and tolerances.  The
extended system of a grammar system with a grammar cost is a grammar
dynamics too, of the cost's and f's trees with their states renamed, and
a dynamics keeps the extensions of its last few costs.
"""

from __future__ import annotations

import ast
import functools
import itertools
import linecache
import math
import re
import struct
import types
import warnings
import weakref
from typing import NamedTuple, Optional

import numpy as np

from .flows import _jumped, _recorded_step, rk4_step
from .pmp import (_axis_max, _axis_maxima, _costate_rate, _fit_quadratic, _h_sum, _model_tol,
                  _nan_max, _off_max)


class ProblemError(ValueError):
    """Bad input: malformed file, unknown token, dimension mismatch."""


_FUNCS = ("sin", "cos", "exp")
_BINOPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "**"}
_NAME_RE = re.compile(r"^([xu])(\d+)$")
# the most levels a grammar tree may have (a sum of n terms has n)
_DEPTH = 1000


def _real_pow(a, b):
    # a negative base with a fractional exponent gives a complex number;
    # the grammar is real-valued, so that is a non-finite result
    r = a ** b
    return r if r.__class__ is float else math.nan


def _integral(node) -> bool:
    """Whether node is a number with an integral value."""
    return isinstance(node, ast.Constant) and float(node.value).is_integer()


def _too_deep(where):
    return ProblemError(f"{where} nests too deeply")


def _describe(node) -> str:
    try:
        return ast.unparse(node)
    except Exception:
        return type(node).__name__


def _source_offset(src, off):
    """The index in src of the character at index off of src with each ^
    written as **."""
    end = 0
    for i, ch in enumerate(src):
        end += 2 if ch == "^" else 1
        if end > off:
            return i
    return len(src)


def _parse(src, where):
    """(text, body): src with ^ read as ** and the parsed expression body.

    A syntax error names the offset and the token in src, or the end of
    the input where Python's parser ran out of it; a character Python's
    tokenizer rejects (a non-breaking space, a line separator, a null) is
    named by its code point at its own offset."""
    if not isinstance(src, str):
        raise ProblemError(f"parse error: expression must be a string, got {src!r}")
    if not src.strip():
        raise ProblemError(f"parse error: empty expression '{src}'")
    text = src.replace("^", "**")
    try:
        # a literal run into a name ("1inf") draws a SyntaxWarning before
        # its SyntaxError; the error alone is reported
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SyntaxWarning)
            return text, ast.parse(text, mode="eval").body
    except SyntaxError as e:
        if e.msg == "too many nested parentheses":
            raise _too_deep(where) from None
        if "null bytes" in e.msg:
            pos = src.index("\0")
            raise ProblemError(f"parse error in '{src}' at offset {pos}: "
                               "invalid character U+0000") from None
        # Python's offset counts from 1 on line lineno, 0 at the end of
        # input; only \r\n, \r and \n end its lines
        starts = [0] + [mm.end() for mm in re.finditer(r"\r\n?|\n", text)]
        line = (e.lineno or 1) - 1
        off = (starts[line] if line < len(starts) else len(text)) + (e.offset or 0) - 1
        code = re.search(r"invalid (?:non-printable )?character.*U\+([0-9A-F]+)", e.msg)
        if code and e.offset:
            raise ProblemError(f"parse error in '{src}' at offset {_source_offset(src, off)}: "
                               f"invalid character U+{code.group(1)}") from None
        if not e.offset or off >= len(text.rstrip()):
            raise ProblemError(f"parse error in '{src}': unexpected end of input") from None
        pos = _source_offset(src, off)
        if src[pos] in "\r\n":
            # eval mode ends the expression at a line break
            raise ProblemError(f"parse error in '{src}' at offset {pos}: unexpected end of line")
        token = (src[pos:pos + 8].split() or [src[pos:pos + 8]])[0]
        raise ProblemError(f"parse error in '{src}' at offset {pos}: bad token '{token}'")
    except (MemoryError, RecursionError):
        # the parser's own stack overflow, or Python's recursion limit as
        # the parser builds the tree, on deep nesting
        raise _too_deep(where) from None


def _check(root, m: int, k: int, text: str, where):
    """Raise ProblemError at the first node, in tree order (node, then left
    to right), outside the grammar, else where the tree has more than
    _DEPTH levels; text is the source the tree was parsed from."""
    deepest = 0
    stack = [(root, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)) or isinstance(node.value, bool):
                raise ProblemError(f"parse error: disallowed constant '{node.value!r}'")
            try:
                finite = math.isfinite(node.value)
            except OverflowError:
                digits = str(node.value)
                raise ProblemError(
                    f"parse error: literal '{digits[:10]}...' ({len(digits)} digits)"
                    " is too large for a float")
            if not finite:
                raise ProblemError(f"parse error: literal '{ast.get_source_segment(text, node)}'"
                                   " is not finite as a float")
        elif isinstance(node, ast.Name):
            mm = _NAME_RE.match(node.id)
            if not mm:
                raise ProblemError(f"parse error: unknown identifier '{node.id}'")
            bound = m if mm.group(1) == "x" else k
            if int(mm.group(2)) >= bound:
                raise ProblemError(
                    f"parse error: identifier '{node.id}' out of range (dim {bound})")
        elif isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            stack += [(node.right, depth + 1), (node.left, depth + 1)]
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            stack.append((node.operand, depth + 1))
        elif isinstance(node, ast.Call):
            if (not isinstance(node.func, ast.Name) or node.func.id not in _FUNCS
                    or node.keywords or len(node.args) != 1):
                raise ProblemError(f"parse error: disallowed call '{_describe(node)}'")
            stack.append((node.args[0], depth + 1))
        else:
            raise ProblemError(f"parse error: disallowed token '{_describe(node)}'")
    if deepest > _DEPTH:
        raise _too_deep(where)


def _tree(src, m: int, k: int, where):
    """The validated grammar tree (the body of the parsed expression)."""
    text, body = _parse(src, where)
    _check(body, m, k, text, where)
    return body


def _children(node):
    """The operands of a node of a validated tree, in order."""
    return ([node.left, node.right] if isinstance(node, ast.BinOp)
            else [node.operand] if isinstance(node, ast.UnaryOp)
            else node.args if isinstance(node, ast.Call) else [])


def _nodes(roots, seen=None):
    """The nodes of the validated trees roots, each once by identity, every
    node after its operands and operands left to right: the one walk of
    the passes over a tree, with an explicit stack, so no depth limit
    applies.  seen, a dict keyed by node id, skips the nodes of an earlier
    walk and gains this walk's (each with the value None)."""
    seen = {} if seen is None else seen
    order = []
    stack = [(root, False) for root in reversed(roots)]
    while stack:
        node, ready = stack.pop()
        if ready:
            order.append(node)
        elif id(node) not in seen:
            seen[id(node)] = None
            stack.append((node, True))
            stack += [(c, False) for c in reversed(_children(node))]
    return order


def _fold(root, rule, values=None):
    """The value of root, where a node's value is rule(node, *the values of
    its operands), computed node by node (`_nodes`).  values, a dict by
    node id, holds an earlier fold's values, which this one reads and
    extends."""
    values = {} if values is None else values
    for node in _nodes([root], values):
        values[id(node)] = rule(node, *[values[id(c)] for c in _children(node)])
    return values[id(root)]


# Symbolic differentiation builds new grammar trees, folding constants so
# that identically zero terms vanish before they are compiled.

def _num(v):
    return ast.Constant(float(v))


def _is_num(node, v=None):
    return isinstance(node, ast.Constant) and (v is None or node.value == v)


def _add(a, b):
    if _is_num(a) and _is_num(b):
        return _num(a.value + b.value)
    if _is_num(a, 0):
        return b
    if _is_num(b, 0):
        return a
    return ast.BinOp(a, ast.Add(), b)


def _neg(a):
    if _is_num(a):
        return _num(-a.value)
    return ast.UnaryOp(ast.USub(), a)


def _sub(a, b):
    if _is_num(a) and _is_num(b):
        return _num(a.value - b.value)
    if _is_num(b, 0):
        return a
    if _is_num(a, 0):
        return _neg(b)
    return ast.BinOp(a, ast.Sub(), b)


def _mul(a, b):
    if _is_num(a, 0) or _is_num(b, 0):
        return _num(0.0)
    if _is_num(a) and _is_num(b):
        return _num(a.value * b.value)
    if _is_num(a, 1):
        return b
    if _is_num(b, 1):
        return a
    return ast.BinOp(a, ast.Mult(), b)


def _div(a, b):
    if _is_num(a, 0):
        return _num(0.0)
    if _is_num(b, 1):
        return a
    return ast.BinOp(a, ast.Div(), b)


def _pow(a, b):
    if _is_num(b, 0):
        return _num(1.0)
    if _is_num(b, 1):
        return a
    return ast.BinOp(a, ast.Pow(), b)


def _call(name, a):
    return ast.Call(func=ast.Name(id=name, ctx=ast.Load()), args=[a], keywords=[])


def _derivative(root, j):
    """d root / d x_j for a validated tree with no state in an exponent."""
    def rule(node, *d):
        if isinstance(node, ast.Constant):
            return _num(0.0)
        if isinstance(node, ast.Name):
            kind, idx = _NAME_RE.match(node.id).groups()
            return _num(1.0 if kind == "x" and int(idx) == j else 0.0)
        if isinstance(node, ast.UnaryOp):
            return _neg(d[0]) if isinstance(node.op, ast.USub) else d[0]
        if isinstance(node, ast.Call):
            a = node.args[0]
            if node.func.id == "sin":
                outer = _call("cos", a)
            elif node.func.id == "cos":
                outer = _neg(_call("sin", a))
            else:
                outer = node
            return _mul(outer, d[0])
        a, b = node.left, node.right
        da, db = d
        op = type(node.op)
        if op is ast.Add:
            return _add(da, db)
        if op is ast.Sub:
            return _sub(da, db)
        if op is ast.Mult:
            return _add(_mul(da, b), _mul(a, db))
        if op is ast.Div:
            return _sub(_div(da, b), _div(_mul(a, db), _pow(b, _num(2.0))))
        # power with an exponent free of states: b a^(b-1) a'
        return _mul(_mul(b, _pow(a, _sub(b, _num(1.0)))), da)

    return _fold(root, rule)


def _u_degree(root) -> Optional[int]:
    """The degree in u of a validated tree, None where it is no polynomial
    in u."""
    def rule(node, *d):
        if isinstance(node, ast.Constant):
            return 0
        if isinstance(node, ast.Name):
            return 1 if node.id.startswith("u") else 0
        if isinstance(node, ast.UnaryOp):
            return d[0]
        if isinstance(node, ast.Call):
            return 0 if d[0] == 0 else None
        da, db = d
        if da is None or db is None:
            return None
        op = type(node.op)
        if op in (ast.Add, ast.Sub):
            return max(da, db)
        if op is ast.Mult:
            return da + db
        if db:
            return None
        if op is ast.Div or da == 0:
            return da
        if _integral(node.right) and node.right.value >= 0:
            return da * int(node.right.value)
        return None

    return _fold(root, rule)


def max_degree(degrees) -> Optional[int]:
    """Degree in u of several expressions together; None if any is unknown."""
    return None if None in degrees else max(degrees)


def _exact(body) -> bool:
    """Whether the derivative rules cover body: no state in an exponent."""
    # a node's value: whether it names a state, None once an exponent does
    def rule(node, *states):
        if None in states:
            return None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and states[1]:
            return None
        return isinstance(node, ast.Name) and node.id[0] == "x" or any(states)

    return _fold(body, rule) is not None


# ---------------------------------------------------------------------------
# code generation
#
# Generated code is Python source text, written into templates that read as
# the code they write (`_fill`).

_GUARDED = (OverflowError, ZeroDivisionError, ValueError)
_GLOBALS = {"__builtins__": {}, "float": float, "range": range, "_real_pow": _real_pow,
            "_sin": math.sin, "_cos": math.cos, "_exp": math.exp, "_isfinite": math.isfinite,
            "_nan": math.nan, "_inf": math.inf, "_guarded": _GUARDED, "_array": np.array,
            "_abs": abs, "_nan_max": _nan_max, "_off_max": _off_max, "_axis_max": _axis_max,
            "_jumped": _jumped, "_pack": struct.pack, "_FloatingPointError": FloatingPointError}

# per operator of generated code ("-x" is a negation): how tightly it binds,
# as in Python's grammar, and how tightly each operand must bind to go
# without parentheses (+ - * / group to the left, ** to the right, and **
# binds tighter than a negation on its left); a name, number or call, _ATOM
_OPERATORS = {"+": (1, (1, 2)), "-": (1, (1, 2)), "*": (2, (2, 3)), "/": (2, (2, 3)),
              "-x": (3, (3,)), "**": (4, (5, 3))}
_ATOM = 5
_COMPILES = itertools.count()


def _number(v):
    """(text, binding) of the number v: text that reads back v's bits, the
    shortest repr of a float, or `_inf` or `_nan`, with a sign bit written
    as a negation (which `compile` folds into a literal)."""
    if isinstance(v, float):
        text = "_nan" if v != v else "_inf" if abs(v) == math.inf else float.__repr__(abs(v))
        text = "-" + text if math.copysign(1.0, v) < 0 else text
    else:
        text = repr(v)
    return text, 3 if text[0] == "-" else _ATOM


def _term(value):
    """(text, binding) of value, an operand or a number."""
    if isinstance(value, _Operand):
        text = value.expr()
        return text, _OPERATORS.get(value.op, (_ATOM,))[0] if value.name is None else _ATOM
    return _number(value)


def _written(op, terms):
    """The text of op on terms, (text, binding) pairs: a call of the
    function named op, or the operator op of `_OPERATORS`.  A term is put
    in parentheses only where Python would group it otherwise, so an
    ordered sum of any length nests none (Python's tokenizer takes at most
    200 nested parentheses)."""
    if op not in _OPERATORS:
        return f"{op}({', '.join(text for text, _ in terms)})"
    texts = [text if binding >= needed else f"({text})"
             for (text, binding), needed in zip(terms, _OPERATORS[op][1])]
    return "-" + texts[0] if op == "-x" else f" {op} ".join(texts)


def _fill(template, **fields):
    """template, a `str.format` template of Python code, with its fields
    filled in: a field alone on its line that is given a list of
    statements, texts of one or more lines, writes them one under the
    other at its column."""
    for indent, field in re.findall(r"^( *)\{(\w+)\}$", template, re.M):
        if isinstance(fields[field], list):
            fields[field] = "\n".join(fields[field]).replace("\n", "\n" + indent)
    return template.format(**fields)


# the source text of a generated function's definition, and its name
_Definition = NamedTuple("_Definition", [("name", str), ("source", str)])


_DEFINITION = """\
def {name}({params}):
    {body}
    return {result}"""

_ENTRY = """\
try:
    {steps}
except _guarded:
    {name} = _nan"""


class _Code:
    """One generated function (x, u) -> value, built statement by statement
    as text.

    An entry is a validated grammar tree.  A number is bound as a constant;
    any other tree is evaluated in its own try, one assignment per node.  A
    state or control named in `inputs` reads that local instead of x or u.
    `consts` holds (node, value) per bound constant: the tree's Constant
    node, or None for a number of the caller's.
    """

    def __init__(self):
        self.consts = []
        self.body = []
        self.n_temps = 0
        self.inputs = {}
        self.operations = {}

    def local(self, text):
        """Assign the expression text to a new temporary; return its name."""
        name = f"_t{self.n_temps}"
        self.n_temps += 1
        self.body.append(f"{name} = {text}")
        return name

    def operation(self, op, args):
        """The operand of op, an operator of `_OPERATORS` or the name of a
        function of the generated code, on args: one operand per op and
        args, operands taken by identity and numbers by repr (which tells
        -0.0 from 0.0), so an operation met again is computed once.  A
        number here is the package's own, written as a literal: a tree's
        numbers come only as operands of their constant cells, which
        `_shaped` rebinds."""
        key = (op, *(a if isinstance(a, _Operand) else repr(a) for a in args))
        if key not in self.operations:
            self.operations[key] = _Operand(self, None, op, args)
        return self.operations[key]

    def _const(self, v, node=None):
        """The name of a new constant cell bound to v, the value of the
        tree's Constant node where it is given."""
        self.consts.append((node, float(v)))
        return f"_c{len(self.consts) - 1}"

    def slots(self, index):
        """What fills each constant cell, for `_shaped`: (i, None) for the
        number i of `_shape`'s tree constants (index maps a Constant node's
        id to it), (None, v) for a number v of the caller's."""
        return tuple((None, v) if node is None else (index[id(node)], None)
                     for node, v in self.consts)

    def entry(self, item):
        """The operand of the tree item: a constant cell for a number, else
        a local that its own try computes, a temporary per node in `_nodes`
        order, written into the body where the operand is first read, so an
        entry that nothing reads is not written.  A subtree that
        `_derivative` shares (d(ab) = da b + a db) is computed once per
        entry, so the code grows with the number of distinct nodes."""
        if isinstance(item, ast.Constant):
            return _Operand(self, self._const(item.value, item))
        name = f"_v{self.n_temps}"
        self.n_temps += 1
        steps = []

        def emitted(node, *args):
            # the operand of node: a constant cell, an input, or a temporary
            if isinstance(node, ast.Constant):
                return self._const(node.value, node)
            if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.UAdd):
                return args[0]
            if isinstance(node, ast.Name) and node.id in self.inputs:
                return self.inputs[node.id]
            if isinstance(node, ast.Name):
                kind, idx = _NAME_RE.match(node.id).groups()
                value = f"float({kind}[{int(idx)}])"
            elif isinstance(node, ast.UnaryOp):
                value = _written("-x", [(args[0], _ATOM)])
            elif isinstance(node, ast.Call):
                value = _written("_" + node.func.id, [(args[0], _ATOM)])
            else:
                # a float to a constant integral power is real: that power
                # is the same a ** b inline
                op = ("_real_pow" if isinstance(node.op, ast.Pow) and not _integral(node.right)
                      else _BINOPS[type(node.op)])
                value = _written(op, [(a, _ATOM) for a in args])
            temp = f"_t{self.n_temps}"
            self.n_temps += 1
            steps.append((temp, value))
            return temp

        operand = _fold(item, emitted)
        if steps and steps[-1][0] == operand:
            steps[-1] = (name, steps[-1][1])
        else:
            steps.append((name, operand))
        entry = _Operand(self, name)
        entry.pending = _fill(_ENTRY, steps=[f"{t} = {v}" for t, v in steps], name=name)
        return entry

    def returning(self, name, values, shape=()):
        """The definition of name(x, u) -> the operands values: a float for
        shape (), a list for (n,), else an array of `shape` filled in
        row-major order."""
        texts = ", ".join(v.expr() for v in values)
        return self.define(name, ("x", "u"), f"[{texts}]" if len(shape) == 1 else
                           f"_array([{texts}]).reshape{shape}" if shape else texts)

    def define(self, name, params, result):
        """The definition of name(*params): the body, then return result."""
        return _Definition(name, _fill(_DEFINITION, name=name, params=", ".join(params),
                                       body=self.body, result=result))

    def compile(self, fn):
        """_bind(consts) -> the function that the definition fn defines, with
        the tuple consts bound to its constant cells in order.

        The text is compiled under a file name of its own, `<pmpkit.grammar
        NAME N>`, which tracebacks and profilers show, and `linecache` holds
        it for them while _bind lives (`_shaped` keeps it); _bind carries it
        as `source`.  The operations are dropped: their operands hold this
        code, and the cycle would outlive the compile until a full
        collection."""
        # the constants are bound once, as cells of an enclosing function
        cells = [f"_c{i} = _consts[{i}]" for i in range(len(self.consts))]
        source = _fill(_DEFINITION, name="_bind", params="_consts", body=cells + [fn.source],
                       result=fn.name)
        filename = f"<pmpkit.grammar {fn.name} {next(_COMPILES)}>"
        namespace = dict(_GLOBALS)
        exec(compile(source, filename, "exec"), namespace)
        bind = namespace.pop("_bind")
        bind.source = source
        linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
        weakref.finalize(bind, linecache.cache.pop, filename, None)
        self.operations = None
        return bind


class _Operand:
    """A value in generated code: a local, or an operation on operands and
    numbers.  Its `+`, `-`, `*`, `/` and `abs` record the operation instead
    of doing it (`_Code.operation`), so the package's own code run on
    operands writes its arithmetic in its own order: `flows.rk4_step` the
    stage and combination arithmetic of an RK4 step, `pmp._fit_quadratic`
    the probe fit."""

    pending = None

    def __init__(self, code, name=None, op=None, args=()):
        self.code, self.name, self.op, self.args = code, name, op, args
        self.reads = 0
        for a in args:
            if isinstance(a, _Operand):
                a.reads += 1

    def _recorded(op, reflected=False):
        def method(self, other):
            return self.code.operation(op, (other, self) if reflected else (self, other))
        return method

    __add__, __radd__ = _recorded("+"), _recorded("+", True)
    __sub__ = _recorded("-")
    __mul__, __rmul__ = _recorded("*"), _recorded("*", True)
    __truediv__, __rtruediv__ = _recorded("/"), _recorded("/", True)
    del _recorded

    def __abs__(self):
        return self.code.operation("_abs", (self,))

    def expr(self):
        """The expression text of the operand.  An operation read by more
        than one other is assigned to a temporary where it is first needed,
        so it runs once, as in the code that was run on operands."""
        if self.name is None:
            text = _written(self.op, [_term(a) for a in self.args])
            if self.reads < 2:
                return text
            self.name = self.code.local(text)
        elif self.pending:
            self.code.body.append(self.pending)
            self.pending = None
        return self.name

    def local(self):
        """The name of a local holding the operand."""
        text = self.expr()
        if self.name is None:
            self.name = self.code.local(text)
        return self.name


def _recording(code, fn, *names):
    """fn, with each function it calls by one of names recorded into code as
    a call of the generated code, which binds it by name (`_GLOBALS`)."""
    def recorder(name):
        return lambda *args: code.operation(name, args)
    return types.FunctionType(fn.__code__, {**fn.__globals__, **{n: recorder(n) for n in names}})


def _returned(value):
    """The expression text of value, an operand, a number, or a list or
    tuple of them.  An operand that an operation reads too is held in a
    local; it runs once where value lists it before the operations that
    read it."""
    if isinstance(value, (list, tuple)):
        items = ", ".join(map(_returned, value))
        return f"[{items}]" if isinstance(value, list) else f"({items},)"
    if isinstance(value, _Operand):
        return value.local() if value.reads else value.expr()
    return _number(value)[0]


def _read(code, vec, i):
    """An operand holding float(vec[i]), read once into a local."""
    return _Operand(code, code.local(f"float({vec}[{i}])"))


def _field_code(trees, k, n):
    """(code, controls, y): a code that reads once, through float, the
    controls the trees name, those reads apart from its body (a run makes
    them once a control run), and the operands of the n floats of the state
    y, which the body reads."""
    code = _Code()
    read = {node.id for node in _nodes(trees) if isinstance(node, ast.Name)}
    for j in range(k):
        if f"u{j}" in read:
            code.inputs[f"u{j}"] = _read(code, "u", j).name
    controls, code.body = code.body, []
    return code, controls, [_read(code, "y", i) for i in range(n)]


def _dynamics_stage(code, bodies):
    """stage(x): the operands of f at the stage state x, for the m trees
    `bodies` of f, as `dynamics` evaluates them."""
    def stage(x):
        code.inputs.update((f"x{i}", xi.local()) for i, xi in enumerate(x))
        return [code.entry(body) for body in bodies]
    return stage


def _linearization(code, jacobian, gradient):
    """(J, g) as `pmp._costate_rate` reads them: the operands of the m x m
    Jacobian trees `jacobian` (row-major) and of the gradient trees, the
    numbers 0.0 without a cost (so that c_j = -0.0 keeps the sign of zero),
    at the state the code's inputs bind, each an entry (`_Code.entry`)."""
    J = [code.entry(tree) for tree in jacobian]
    return J, ([0.0] * math.isqrt(len(J)) if gradient is None
               else [code.entry(tree) for tree in gradient])


def _locals(code, operands):
    """Operands of locals holding the operands: rates, which the stages and
    the combination read, as each entry of f is."""
    return [_Operand(code, v.local()) for v in operands]


def _coupled_stage(code, bodies, jacobian, gradient):
    """stage(y): the operands of the coupled field at the stage state
    y = (x, p), as f and `pmp._costate` compute it: f(x, u), then
    `pmp._costate_rate` of the column p with the parameter c, run on the
    operands."""
    m = len(bodies)
    dynamics, c = _dynamics_stage(code, bodies), [_Operand(code, "c")]

    def stage(y):
        rates = dynamics(y[:m])
        return rates + _locals(code, _costate_rate(*_linearization(code, jacobian, gradient),
                                                   c, y[m:]))

    return stage


def _rk4_step_code(code, y, stage, k1, h="h"):
    """The expressions of the list `flows.rk4_step` returns from the
    operands y, with the step in the local h and the first stage k1, of the
    field whose stage(v) evaluates it at the stage operands v into code.

    rk4_step runs once on `_Operand`s, so the stage and combination
    arithmetic is its own, in its order.
    """
    step = rk4_step(lambda t, v: stage(v), 0.0, y, _Operand(code, h), k1)
    return [v.expr() for v in step]


_RUN = """\
def {name}({params}):
    {reads}
    for i0, i1, j in runs:
        u = U[j]
        {controls}
        for i in range({nodes}):
            {step}
            {kept}
            if not ({finite}):
                {blown_kept}
                return {blown}
            {carried}
    {last}
    return None"""


def _run_function(code, name, params, reads, controls, head, y, new, out, nodes, blown,
                  end=False):
    """The definition of name(*params) -> node that `_RUN` writes, whose
    step, head and then code.body, makes the locals new, which the
    operands y carry to the next node; with end, out gets only the state
    the loops stop at."""
    state = [f"{out}.append([{', '.join(new)}])"]
    return _Definition(name, _fill(
        _RUN, name=name, params=", ".join(params), reads=reads, controls=controls, nodes=nodes,
        step=head + code.body, kept=[] if end else state, blown_kept=state if end else [],
        last=[f"{out}.append([{', '.join(yi.name for yi in y)}])"] if end else [], blown=blown,
        finite=" and ".join(f"_isfinite({n})" for n in new),
        carried=[f"{yi.name} = {n}" for yi, n in zip(y, new)]))


def _dynamics_run_code(bodies, k, end=False):
    """(code, definition) of dynamics_run(y, U, runs, ts, xs) -> node, or
    with end of dynamics_end, which keeps only the last state: the RK4
    steps of x' = f(x, u) from y over the runs (i0, i1, j) of the grid ts
    (`flows._runs`), u = U[j] held from node i0 to node i1 (`_RUN`), for
    the m trees `bodies` of f.  Step i has h = ts[i + 1] - ts[i]: the list
    `flows.rk4_step` returns, whose stage and combination arithmetic
    `_rk4_step_code` writes; each of the four stages evaluates the entries
    as `dynamics` does, each in its own try, on the stage's state held in
    locals."""
    code, controls, y = _field_code(bodies, k, len(bodies))
    reads, code.body = code.body, []
    stage = _dynamics_stage(code, bodies)
    new = [code.local(v) for v in _rk4_step_code(code, y, stage, stage(y))]
    return code, _run_function(code, "dynamics_end" if end else "dynamics_run",
                               ("y", "U", "runs", "ts", "xs"), reads, controls,
                               ["h = ts[i + 1] - ts[i]"], y, new, "xs", "i0, i1", "i + 1", end)


def _adjoint_run_code(bodies, jacobian, gradient, k, r):
    """(code, definition) of adjoint_run(p, U, runs, c, ts, xs, out) ->
    node (`_RUN`): the discrete adjoint of the RK4 steps of x' = f(x, u),
    as `pmp.adjoint_flows` takes it, stepping the m x r block p (column
    after column) back over the runs (i0, i1, j), from node i1 to node i0
    of each with u = U[j] held, for the m trees `bodies` of f, the Jacobian
    trees `jacobian` (row-major) and the gradient trees, None without a
    cost; c holds the r column multipliers c = -p0.

    Step i retraces the forward step from the node state xs[i] with h =
    ts[i + 1] - ts[i]: `flows._recorded_step` runs once on `_Operand`s and
    linearizes at its four stage states (J and g, as `_coupled_stage`
    evaluates them).  The block then steps back by the list `rk4_step`
    returns with step hb = ts[i] - ts[i + 1] on `pmp._costate_rate` of those
    linearizations in reverse stage order.  The forward step's own new
    state, and so f at its fourth stage, is never read, and is not
    written."""
    m = len(bodies)
    code, controls, _ = _field_code([*bodies, *(gradient or ())], k, 0)
    c = [_read(code, "c", j) for j in range(r)]
    p = [_read(code, "p", i) for i in range(m * r)]
    reads, code.body = code.body, []
    x = [_read(code, "x", i) for i in range(m)]
    dynamics = _dynamics_stage(code, bodies)
    # _recorded_step evaluates f at a stage, which binds the stage state to
    # the inputs, before it linearizes there
    _, lins = _recorded_step(lambda _, v: dynamics(v),
                             lambda _, v: _linearization(code, jacobian, gradient),
                             0.0, x, _Operand(code, "h"))
    stages = reversed(lins)

    def stage(pp):
        return _locals(code, _costate_rate(*next(stages), c, pp))

    new = [code.local(v) for v in _rk4_step_code(code, p, stage, stage(p), "hb")]
    head = ["x = xs[i]", "h = ts[i + 1] - ts[i]", "hb = ts[i] - ts[i + 1]"]
    return code, _run_function(code, "adjoint_run", ("p", "U", "runs", "c", "ts", "xs", "out"),
                               reads, controls, head, p, new, "out", "i1 - 1, i0 - 1, -1", "i")


def _coupled_step_code(bodies, jacobian, gradient, k, step):
    """(code, definition) of the coupled (x, p) field of `_coupled_stage`
    at u held: coupled_stage(y, u, c) -> list, the field at y, or, with
    step, coupled_step(y, u, h, k1, c) -> list, one RK4 step from y with
    step h whose first stage k1 is coupled_stage(y, u, c)."""
    code, controls, y = _field_code([*bodies, *(gradient or ())], k, 2 * len(bodies))
    code.body[:0] = controls
    stage = _coupled_stage(code, bodies, jacobian, gradient)
    if not step:
        return code, code.define("coupled_stage", ("y", "u", "c"), _returned(stage(y)))
    k1 = [_Operand(code, code.local(f"k1[{i}]")) for i in range(len(y))]
    return code, code.define("coupled_step", ("y", "u", "h", "k1", "c"),
                             f"[{', '.join(_rk4_step_code(code, y, stage, k1))}]")


def _probe_fit_code(bodies, cost, points, axes, pairs):
    """(code, definition) of probe_fit(p, x, p0f) -> fit: the values of H =
    p0f F + p . f at the probe points and their quadratic fit, bit for bit
    as `pmp._fit_quadratic` makes them from the values of the maximizer's
    H, for the m trees `bodies` of f and the tree `cost` of F, None without
    a cost; None if a tree names a control the points lack.

    points are the probes' controls as lists of floats, and axes and pairs
    the fit's tuples, laid out as `pmp._Probes` lays them out.  x is read
    through float once.  At each probe, each control the trees name reads
    a number bound to the probe, and each entry of F and of f runs in its
    own try, as `_Code.entry` writes it, once per binding of the inputs it
    reads, so an entry that names no control runs once for all probes.
    `pmp._h_sum` runs on the operands of F (0.0 without a cost, so that
    p0f 0.0 keeps its sign of zero) and f, then `pmp._fit_quadratic`
    (H=None) on the probes' values, its comparison helpers recorded as
    calls."""
    trees = bodies if cost is None else [cost, *bodies]
    names = {id(tree): sorted({n.id for n in _nodes([tree]) if isinstance(n, ast.Name)})
             for tree in trees}
    read = set().union(*names.values())
    m, k = len(bodies), len(points[0])
    if any(name[0] == "u" and int(name[1:]) >= k for name in read):
        return None
    code, entries = _Code(), {}
    for i in range(m):
        if f"x{i}" in read:
            code.inputs[f"x{i}"] = _read(code, "x", i).name
    p = [_Operand(code, code.local(f"p[{i}]")) for i in range(m)]
    p0f = _Operand(code, "p0f")

    def value(tree):
        key = (id(tree), *map(code.inputs.get, names[id(tree)]))
        if key not in entries:
            entries[key] = code.entry(tree)
        return entries[key]

    values = []
    for u in points:
        for j in range(k):
            if f"u{j}" in read:
                code.inputs[f"u{j}"] = code._const(u[j])
        values.append(_h_sum(p0f, 0.0 if cost is None else value(cost), p,
                             [value(body) for body in bodies]))
    probes = types.SimpleNamespace(k=k, axes=axes, pairs=pairs)
    fit = _recording(code, _fit_quadratic, "_nan_max", "_off_max")(values, probes, None, None)
    return code, code.define("probe_fit", ("p", "x", "p0f"), _returned(fit))


_ARC = """\
def arc(h, c, p0f, stage, step, fit, decide):
    hh = 0.5 * h

    def trial(y, u, dt, k1):
        {trial}
        return ym, um, not same and _jumped(um, u, {jump_tol})

    def run(y, u, t, b, eps, steps):
        while b - t > eps and not b - t < h:
            k1 = stage(y, u, c)
            {half}
            if not same and _jumped(uh, u, {jump_tol}):
                return t, y, u, (u, k1, 0.0, hh, yh, uh)
            if same:
                k1h = k1
                lo = hh
            else:
                k1h = stage(y, uh, c)
                lo = 0.0
            {full}
            if not same and _jumped(u1, uh, {jump_tol}):
                return t, y, u, (uh, k1h, lo, h, y1, u1)
            steps.append((t, uh))
            t = t + h
            y = y1
            u = u1
        return t, y, u, None

    return run, trial"""

# the trial of dt from y with the control u held and the first stage k1:
# the state v, where blown runs unless v is finite, and the control um
# decided there (`_DECIDED`, or a call of decide).  `same` tells whether um
# has u's bits: the same objects (an axis maximum at a bound returns the
# bound's), else the same packed bytes
_REACHED = """\
{v} = step(y, {u}, {dt}, {k1}, c)
if not ({finite}):
    {blown}
{decision}
same = {same} or _pack("{k}d", *{um}) == _pack("{k}d", *{u})"""

# the decision from the fit at v, by the traced decision where the fit is
# separable
_DECIDED = """\
{fit} = fit({v}[{m}:], {v}[:{m}], p0f)
{reads}
if {off} <= {ztol}:
    {decided}
else:
    {um} = decide({v}, {fit})"""


def _arc_code(m, k, sides, fit_tol, jump_tol):
    """(code, definition) of `_ARC`: arc(h, c, p0f, stage, step, fit,
    decide) -> (run, trial), `shooting._propagator`'s loop and trial for
    states y = (x, p) of 2m floats held in lists, k controls and the jump
    tolerance jump_tol.  arc binds what is fixed for a problem: the step h,
    c = -p0, p0f = p0, the coupled field's stage(y, u, c) and step(y, u, h,
    k1, c) (`shooting._coupled_field`), the probe fit fit(p, x, p0f) and
    decide(y, fit), the maximizer's control at y, from fit where it is not
    None.  So it is compiled once per m, k, box and tolerances.

    trial(y, u, dt, k1) -> (ym, um, jumped) is one trial step of dt, and
    run(y, u, t, b, eps, steps) makes the whole steps of h, each the trial
    of h / 2 and the trial of h (`_REACHED`); at a jump run returns the
    bracket that the bisection reads.  jumped is `flows._jumped` of um
    against u, not called where the two have the same bits.

    The control decided at a state has two forms.  With sides, the box
    maximizer's (lo, hi, u0, delta) per axis (`pmp._Probes`), it is
    decided from the generated probe fit: `pmp._model_tol` and
    `pmp._axis_maxima` run on the operands of the fit's values, with
    `pmp._axis_max` called by name, where the off-diagonal part of the fit
    clears ztol, else decide(y, fit); fit_tol is the decision's tolerance,
    and sides holds Python floats, which the decision binds as numbers.
    With sides None, it is decide(y, None), and fit is not called."""
    code = _Code()

    def reached(v, fit, um, u, dt, k1, blown):
        decision = [f"{um} = decide({v}, None)"]
        if sides is not None:
            # the decision's statements, temporaries included, run only
            # where the fit is separable
            code.body = []
            b, a = ([_Operand(code, code.local(f"{fit}[{i}][{j}]")) if side[3] > 0 else None
                     for j, side in enumerate(sides)] for i in (0, 1))
            bmax, cmax, off = (_Operand(code, code.local(f"{fit}[{i}]")) for i in (3, 4, 5))
            ztol = _model_tol(bmax, cmax, fit_tol)
            ztol.local()
            reads, code.body = code.body, []
            decided = _returned(_recording(code, _axis_maxima, "_axis_max")(b, a, ztol, sides))
            decision = [_fill(_DECIDED, v=v, fit=fit, m=m, reads=reads, off=off.name,
                              ztol=ztol.name, decided=code.body + [f"{um} = {decided}"], um=um)]
        return [_fill(_REACHED, v=v, u=u, dt=dt, k1=k1, blown=blown, um=um, k=k,
                      finite=" and ".join(f"_isfinite({v}[{i}])" for i in range(2 * m)),
                      decision=decision,
                      same=" and ".join(f"{um}[{j}] is {u}[{j}]" for j in range(k)))]

    return code, _Definition("arc", _fill(
        _ARC, jump_tol=_number(jump_tol)[0],
        trial=reached("ym", "fm", "um", "u", "dt", "k1", "raise _FloatingPointError"),
        half=reached("yh", "fh", "uh", "u", "hh", "k1", "return None"),
        full=reached("y1", "f1", "u1", "uh", "h", "k1h", "return None")))


def arc_loop(m: int, k: int, sides, fit_tol: float, jump_tol: float):
    """arc(h, c, p0f, stage, step, fit, decide) -> (run, trial), shooting's
    one loop over the steps of an arc (`_arc_code`) for states of m
    entries, k controls and the jump tolerance jump_tol: its form that
    decides from the generated probe fit with the box maximizer's sides
    and fit_tol, or with sides None, its form that calls decide.  The loop
    reads no tree, so it is compiled once per m, k, sides and tolerances,
    whatever the dynamics (the decide form once per m, k and jump_tol)."""
    key = None
    if sides is not None:
        # the sides keyed by their bytes, which tell -0.0 from 0.0
        sides = np.asarray(sides, dtype=float)
        key, sides = (sides.tobytes(), fit_tol), sides.tolist()
    return _shaped("arc", _shape([]), lambda: _arc_code(m, k, sides, fit_tol, jump_tol),
                   m, k, key, jump_tol)


# ---------------------------------------------------------------------------
# compiles shared by shape
#
# Generated code reads a tree's numbers only through constant cells, bar a
# power's exponent, which decides the power's form (`_integral`) and the
# degree in u.  So trees that differ in their other numbers, and in nothing
# else, generate the same code, and one compile serves them all.

def _shape(groups):
    """(shape, numbers, index) of the grammar trees in groups, a list of
    lists of trees, after `_derivative`'s folding.

    shape holds per group the preorder of its trees' nodes: a state or
    control by name, a call by function, a sign or binary operator by type,
    a power with its exponent where that is a number, and a number as
    "c".  A node met again (derivatives share subtrees) is its number in
    order of first visit.  numbers holds the value of each Constant node
    in that order, and index maps a Constant node's id to its place there.
    """
    # a preorder loop of its own, not `_nodes`: it runs at every lookup of
    # a compiled form (11 per shooting op of an LQR problem), where a key
    # made over the generic walk took about twice as long
    shape, numbers, index, seen = [], [], {}, {}
    for trees in groups:
        tokens = []
        stack = list(reversed(trees))
        while stack:
            node = stack.pop()
            if id(node) in seen:
                tokens.append(seen[id(node)])
                continue
            seen[id(node)] = len(seen)
            if isinstance(node, ast.Constant):
                index[id(node)] = len(numbers)
                numbers.append(float(node.value))
                tokens.append("c")
            elif isinstance(node, ast.Name):
                tokens.append(node.id)
            elif isinstance(node, ast.Call):
                tokens.append(node.func.id)
                stack.append(node.args[0])
            elif isinstance(node, ast.UnaryOp):
                tokens.append(type(node.op))
                stack.append(node.operand)
            else:
                right = node.right
                tokens.append((ast.Pow, right.value) if isinstance(node.op, ast.Pow)
                              and isinstance(right, ast.Constant) else type(node.op))
                stack += [right, node.left]
        shape.append(tuple(tokens))
    return tuple(shape), numbers, index


_MISSING = object()
# the most recently used compiles kept per process, one per form and shape
_FORMS = {}
_FORMS_KEPT = 512


def _shaped(form, trees_shape, build, *args):
    """The function that build() -> (code, definition) defines, with its
    constants bound, or None where build returns None.

    It is compiled once per form, args and trees_shape, the `_shape` of
    every tree whose numbers the code binds, build's own trees.  A compile
    kept from other trees of the same shape is bound to these trees' own
    numbers, in the cells where it bound those trees' (`_Code.slots`), so
    it is the function that build would compile, bit for bit.  args must
    hold every number the code binds that no tree holds, and every other
    argument of build that is not a tree."""
    shape, numbers, index = trees_shape
    key = (form, args, shape)
    kept = _FORMS.pop(key, _MISSING)
    if kept is _MISSING:
        built = build()
        kept = built and (built[0].compile(built[1]), built[0].slots(index))
    _FORMS[key] = kept
    if len(_FORMS) > _FORMS_KEPT:
        del _FORMS[next(iter(_FORMS))]
    if kept is None:
        return None
    bind, slots = kept
    return bind(tuple(v if i is None else numbers[i] for i, v in slots))


def _entries_code(trees, name, shape):
    """(code, definition) of name(x, u) -> the values of the trees, each an
    entry (`_Code.entry`), as `_Code.returning` lays them out."""
    code = _Code()
    return code, code.returning(name, [code.entry(tree) for tree in trees], shape)


def _entries_function(trees, name, shape=()):
    """The generated function name(x, u) of `_entries_code`, marked
    `on_lists`."""
    fn = _shaped(name, _shape([trees]), lambda: _entries_code(trees, name, shape), shape)
    fn.on_lists = True
    return fn


# ---------------------------------------------------------------------------
# public entry points

@functools.lru_cache(maxsize=128)
def parse_expression(src: str, m: int, k: int, where="expression"):
    """Compile one grammar expression to a function (x, u) -> float, which
    carries its validated tree as `tree` (the generated probe fit of a
    dynamics evaluates a cost from it).

    `where` names the expression in the error raised when it nests too
    deeply: past _DEPTH levels, or deeper than Python's parser reads.
    """
    tree = _tree(src, m, k, where)
    fn = _entries_function([tree], "expression")
    fn.tree = tree
    return fn


@functools.lru_cache(maxsize=128)
def compile_dynamics(srcs, m: int, k: int):
    """Generated f(x, u) -> list of n floats and df/dx(x, u) -> (n, m) array for
    the expressions srcs of a problem's dynamics, with their degree in u.

    df/dx is None when some expression has a state in an exponent.  f
    carries five generated forms, each compiled where a call finds it in
    no memo (below), since only some paths run it: three RK4 forms, the box
    maximizer's probe fit and the extended system.  Shooting's arc loop,
    which reads no tree, is `arc_loop`, not a form of f.
    - `f.runner()` returns run(y, U, runs, ts, xs), the RK4 steps of
      x' = f(x, u) (n = m) from y over the runs (i0, i1, j) of the grid ts
      (`flows._runs`), u = U[j] held from node i0 to node i1: step i
      appends to xs the list `flows.rk4_step(lambda t, x: f(x, u), t, x,
      h, f(x, u))` returns for h = ts[i + 1] - ts[i], bit for bit.  It
      returns the first node whose state is not finite (that state
      appended), or None.  `f.runner(True)`, its endpoint form, takes the
      same steps and appends only the state it stops at.
    - `f.coupled_step(df_dx, F, dF_dx)` returns (stage, step) for shooting's
      coupled field x' = f(x, u), p' = c dF/dx - (df/dx)^T p with c = -p0,
      for a system with Jacobian df_dx, cost F (None without a cost) and
      cost gradient dF_dx: stage(y, u, c) is the field at y = (x, p) and
      step(y, u, h, k1, c) one RK4 step from y whose first stage k1 is
      stage(y, u, c), with the bits of `flows.rk4_step` on f and
      `pmp._costate`.
    - `f.adjoint_run(df_dx, F, dF_dx, r)` returns run(p, U, runs, c, ts,
      xs, out), the sweep of `pmp.adjoint_flows` for an m x r block: it
      steps the block p (column after column) back over the runs (i0, i1,
      j), from node i1 to node i0 of each with u = U[j], node states xs
      and multipliers c = -p0 per column, appending each block to out as a
      list, bit for bit, and returns the first node whose block is not
      finite (that block appended), or None.  Each column steps as its own
      vector, so a block column has the bits of its own sweep.
    Both return None unless df_dx is f's own generated Jacobian and the
    system has no cost or dF_dx is a generated gradient.
    - `f.probe_fit(F, points, axes, pairs)` returns fn(p, x, p0f) -> fit,
      the box maximizer's quadratic fit: `pmp._fit_quadratic` of the values
      of H = p0f F + p . f (`pmp._h_sum`) at the probe points, both run once
      on operands (`_probe_fit_code`), with axes and pairs the fit's tuples
      (`pmp._Probes`).  It returns None unless F is
      None or a grammar expression (`parse_expression` keeps its tree as
      `F.tree`) and f has one entry per state.  p0f is an argument, so
      p0 = -1 and p0 = 0 share it.
    - `f.extension(df_dx, F, dF_dx)` returns (f_hat, df_hat), the dynamics
      and Jacobian of the extended system (x0, x) with x0' = F, which
      `control_system.extend` takes, or None unless the system qualifies
      as for `coupled_step` and F is None or a grammar expression:
      `_dynamics` of F's tree (the number 0.0 without a cost) and f's trees
      with every state x_i renamed x_{i+1} (`_shifter`), on m + 1 states,
      with Jacobian rows [0, dF/dx] and [0, df_i/dx] (`_extension`).
      f_hat carries every form above, compiled once per shape of its
      trees, so the extension of a new cost weight compiles nothing, and
      its values, Jacobian, path and adjoint sweep have the bits of
      `extend`'s `f_hat` and `df_hat`.  f keeps the extensions of its last
      8 costs, keyed on the functions F and dF_dx.

    Every form is source text emitted from templates, compiled under a file
    name of its own (`<pmpkit.grammar NAME N>`) that tracebacks, profilers
    and `inspect.getsource` read.

    srcs is a tuple.  Generated code is kept per process in two memos.
    Each entry point keeps its last 128 successful results, keyed on its
    arguments, so a problem loaded again compiles nothing, while a bad
    expression raises at every call; a load that missed them would take
    0.1 to 0.4 ms with every form kept, and each CLI command loads.
    Behind that, `_FORMS` keeps every form compiled once per shape of its
    trees (`_shaped`), and each call of f's forms looks it up there: a
    problem whose expressions differ from an earlier one's only in numbers
    that are not a power's exponent, such as a cost weight, binds the
    earlier compiles to its own numbers, bit for bit as its own compiles
    would be.
    """
    bodies, degrees, entries = [], [], []
    for i, src in enumerate(srcs):
        bodies.append(_tree(src, m, k, f"dynamics.expressions[{i}]"))
        degree, partials = _partials(bodies[-1], m)
        degrees.append(degree)
        entries = None if entries is None or partials is None else entries + partials
    return (*_dynamics(bodies, entries, m, k), max_degree(degrees))


def _partials(body, m: int):
    """(degree in u, [d body / d x_j for j < m]) of a validated tree, the
    derivatives None where a state is in an exponent."""
    return _u_degree(body), [_derivative(body, j) for j in range(m)] if _exact(body) else None


def _dynamics(bodies, entries, m: int, k: int):
    """(f, df/dx) of `compile_dynamics` for the validated trees `bodies` of
    f on m states and k controls and the trees `entries` of df/dx laid out
    row after row, None where some tree has a state in an exponent: f
    carries its forms, and df/dx is None without entries."""
    # `signal_field` asks for a runner once per simulated path, so the
    # shape of f that keys it is taken once, here
    body_shape = _shape([bodies])

    def runner(end=False):
        return _shaped("dynamics_end" if end else "dynamics_run", body_shape,
                       lambda: _dynamics_run_code(bodies, k, end), k)

    n = len(bodies)
    dynamics = _entries_function(bodies, "dynamics", (n,))
    df = None if entries is None else _entries_function(entries, "dynamics_jacobian", (n, m))
    square = df is not None and n == m

    def qualifies(df_dx, F, dF_dx):
        # a system whose Jacobian is df and whose cost F is None or has a
        # generated gradient dF_dx
        return square and df_dx is df and (F is None or hasattr(dF_dx, "entries"))

    def shaped(form, F, dF_dx, build, *args):
        # build(gradient trees)'s form, compiled once per shape of f, df/dx
        # and the gradient, None without a cost
        gradient = None if F is None else dF_dx.entries
        return _shaped(form, _shape([bodies, entries, gradient or ()]), lambda: build(gradient),
                       gradient is None, k, *args)

    def coupled_step(df_dx, F, dF_dx):
        if not qualifies(df_dx, F, dF_dx):
            return None
        return tuple(shaped("coupled_step", F, dF_dx, lambda gradient, step=step:
                            _coupled_step_code(bodies, entries, gradient, k, step), step)
                     for step in (False, True))

    def adjoint_run(df_dx, F, dF_dx, r):
        if not qualifies(df_dx, F, dF_dx):
            return None
        return shaped("adjoint_run", F, dF_dx,
                      lambda gradient: _adjoint_run_code(bodies, entries, gradient, k, r), r)

    def probe_fit(F, points, axes, pairs):
        cost = getattr(F, "tree", None)
        if n != m or (F is not None and cost is None):
            return None
        points = [np.asarray(u, dtype=float) for u in points]
        # each probe keyed by its bytes, which tell -0.0 from 0.0
        return _shaped("probe_fit", _shape([bodies, [] if cost is None else [cost]]),
                       lambda: _probe_fit_code(bodies, cost, [u.tolist() for u in points],
                                               axes, pairs),
                       tuple(u.tobytes() for u in points), axes, pairs)

    def extension(df_dx, F, dF_dx):
        if not qualifies(df_dx, F, dF_dx) or F is not None and not hasattr(F, "tree"):
            return None
        return extended(F, dF_dx)

    # `extend` asks for the extension of each system it extends, so the
    # extensions of the last few costs, each a grammar expression and its
    # generated gradient (or None), are kept
    @functools.lru_cache(maxsize=8)
    def extended(F, dF_dx):
        return _extension(bodies, entries, None if F is None else F.tree,
                          None if F is None else dF_dx.entries, m, k)

    dynamics.runner = runner
    dynamics.coupled_step = coupled_step
    dynamics.adjoint_run = adjoint_run
    dynamics.probe_fit = probe_fit
    dynamics.extension = extension
    return dynamics, df


def _shifter():
    """shift(tree) -> a copy of the validated tree with each state x_i named
    x_{i+1}, made node by node (`_fold`).  A number or a control keeps its
    node, and the copies share what the trees share: a node met again, in
    this tree or an earlier one, is copied once (`_derivative` shares
    subtrees between a tree and its derivatives)."""
    copies = {}

    def copy(node, *operands):
        if isinstance(node, ast.Constant) or isinstance(node, ast.Name) and node.id[0] == "u":
            return node
        if isinstance(node, ast.Name):
            return ast.Name(f"x{int(node.id[1:]) + 1}", ast.Load())
        if isinstance(node, ast.BinOp):
            return ast.BinOp(operands[0], node.op, operands[1])
        if isinstance(node, ast.UnaryOp):
            return ast.UnaryOp(node.op, operands[0])
        return _call(node.func.id, operands[0])

    return lambda tree: _fold(tree, copy, copies)


def _extension(bodies, entries, cost, gradient, m: int, k: int):
    """(f, df/dx) of `_dynamics` for the extended system of the dynamics
    with trees `bodies` and Jacobian trees `entries`, cost tree `cost` and
    gradient trees `gradient`, both None without a cost: one grammar
    dynamics of m + 1 states (x0, x), the cost first, with every state of
    the trees renamed one place on (`_shifter`).  Its Jacobian rows are
    [0, dF/dx] (all zero without a cost) and [0, df_i/dx], the zeros the
    number 0.0, as `control_system.extend`'s `df_hat` fills them."""
    shift = _shifter()
    rows = [gradient or [None] * m] + [entries[i * m:(i + 1) * m] for i in range(m)]
    jacobian = [_num(0.0) if t is None else shift(t) for row in rows for t in (None, *row)]
    return _dynamics([_num(0.0) if cost is None else shift(cost), *map(shift, bodies)],
                     jacobian, m + 1, k)


@functools.lru_cache(maxsize=128)
def compile_gradient(src: str, m: int, k: int):
    """Generated dF/dx(x, u) -> list of m floats of a problem's cost expression, or
    None when a state appears in an exponent, with its degree in u.  The
    gradient carries its m entry trees as `entries`, from which the
    dynamics' coupled step evaluates it.  It differentiates the tree that
    `parse_expression` keeps for the cost, so a cost text is parsed once."""
    degree, entries = _partials(parse_expression(src, m, k, "cost.expression").tree, m)
    if entries is None:
        return None, degree
    gradient = _entries_function(entries, "gradient", (m,))
    gradient.entries = entries
    return gradient, degree
