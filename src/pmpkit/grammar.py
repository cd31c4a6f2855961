"""The expression grammar of problem files, compiled to generated functions.

An expression is a string over x0..x{m-1} (states), u0..u{k-1} (controls)
and numbers, with +, -, *, /, ^ (or **), unary signs and the functions sin,
cos and exp.  It is parsed by `ast`, validated node by node, differentiated
symbolically in x, and read for its degree in u.

Evaluation goes through generated Python functions: one per dynamics
vector, cost, or exact Jacobian; one loop of RK4 steps of the dynamics over
a run of grid nodes; for shooting, the stage and the RK4 step of the
coupled (x, p) field x' = f, p' = c dF/dx - (df/dx)^T p, as f and
`pmp._costate` compute it; for `pmp.adjoint_flows`, one loop of its
discrete-adjoint steps of an m x r block of covectors over a run of grid
nodes; for the box maximizer, its probe values of p0 F + p . f and
their quadratic fit in one straight-line function; and for shooting on a
finite box, one loop over the whole steps of an arc and one trial step,
which call the coupled step and the probe fit and make the maximizer's
decision and the jump test.  Every pairing of a covector with a rate or a
Jacobian column is summed in order from 0.0
(`flows._dot`), in the generated code as in the package's own, so their
bits depend on no BLAS.  The generated code is written by running the
package's own code once on symbolic operands: `flows.rk4_step` for every
step's stage and combination arithmetic, `flows._recorded_step` for the
adjoint's retraced forward step, `pmp._costate_rate` for (df/dx)^T p,
`pmp._h_sum` for the probe values of H, `pmp._fit_quadratic` for their
fit and `pmp._model_tol` and `pmp._axis_maxima` for the decision from it,
with their comparison and axis helpers called by name; an operation met
again on the same operands is computed once.  Each is built as an `ast` tree from
the validated grammar tree, one assignment per grammar node in the order a
tree walk evaluates them (left operand, right operand, operation; a
subtree that a derivative shares is assigned once per entry), and passed
to `compile`; no source
text is generated and the user's text is never evaluated.  Numbers are
bound through a tuple, so nothing is folded (the package's own numbers are
literals, each met with a variable).  A state or control reads as
`float(x[i])` or `float(u[i])`, from a list or an array, a vector is a
list of floats, every generated function of (x, u), the scalar
expressions of a cost included, is marked `on_lists` (it takes x as a list
of floats), a power goes through `_real_pow` unless its exponent is a
number with an integral value (a float to such a power is real, and `**`
is written inline), and each vector component and Jacobian entry has its
own `try` that turns overflow, division by zero
and math domain errors into NaN, so the integrators' blow-up checks own
the diagnostic.  Straight-line code keeps `compile` shallow however deeply
an expression nests.  Generated code is kept per process in two memos:
the public entry points' recent results, keyed on their texts, and behind
them `_FORMS`, each generated form compiled once per shape of its trees
(`_shaped`): trees that differ only in numbers other than a power's
exponent share its code, with their own numbers bound, and the arc loop,
which reads no tree, is kept once per m, box and tolerances.
"""

from __future__ import annotations

import ast
import functools
import math
import re
import struct
import types
import warnings
from contextlib import contextmanager
from typing import Optional

import numpy as np

from .flows import _recorded_step, rk4_step
from .pmp import (_axis_max, _axis_maxima, _costate_rate, _fit_quadratic, _h_sum, _model_tol,
                  _nan_max, _off_max)
from .shooting import _jumped


class ProblemError(ValueError):
    """Bad input: malformed file, unknown token, dimension mismatch."""


_FUNCS = ("sin", "cos", "exp")
_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_NAME_RE = re.compile(r"^([xu])(\d+)$")


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


@contextmanager
def _nesting(where):
    """Report running out of recursion depth on a deep tree as bad input."""
    try:
        yield
    except RecursionError:
        raise _too_deep(where) from None


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
    except MemoryError:
        # the parser's own stack overflow on deep nesting
        raise _too_deep(where) from None


def _check(root, m: int, k: int, text: str):
    """Raise ProblemError at the first node, in tree order (node, then left
    to right), outside the grammar; text is the source the tree was parsed
    from."""
    stack = [root]
    while stack:
        node = stack.pop()
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
        elif isinstance(node, ast.BinOp) and isinstance(node.op, _BINOPS):
            stack += [node.right, node.left]
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            stack.append(node.operand)
        elif isinstance(node, ast.Call):
            if (not isinstance(node.func, ast.Name) or node.func.id not in _FUNCS
                    or node.keywords or len(node.args) != 1):
                raise ProblemError(f"parse error: disallowed call '{_describe(node)}'")
            stack.append(node.args[0])
        else:
            raise ProblemError(f"parse error: disallowed token '{_describe(node)}'")


def _tree(src, m: int, k: int, where):
    """The validated grammar tree (the body of the parsed expression)."""
    text, body = _parse(src, where)
    _check(body, m, k, text)
    return body


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


def _derivative(node, j):
    """d node / d x_j for a validated tree with no state in an exponent."""
    if isinstance(node, ast.Constant):
        return _num(0.0)
    if isinstance(node, ast.Name):
        kind, idx = _NAME_RE.match(node.id).groups()
        return _num(1.0 if kind == "x" and int(idx) == j else 0.0)
    if isinstance(node, ast.UnaryOp):
        da = _derivative(node.operand, j)
        return _neg(da) if isinstance(node.op, ast.USub) else da
    if isinstance(node, ast.Call):
        a = node.args[0]
        if node.func.id == "sin":
            outer = _call("cos", a)
        elif node.func.id == "cos":
            outer = _neg(_call("sin", a))
        else:
            outer = node
        return _mul(outer, _derivative(a, j))
    a, b = node.left, node.right
    da, db = _derivative(a, j), _derivative(b, j)
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


def _has_state(node) -> bool:
    return any(isinstance(n, ast.Name) and n.id.startswith("x") for n in ast.walk(node))


def _u_degree(node) -> Optional[int]:
    if isinstance(node, ast.Constant):
        return 0
    if isinstance(node, ast.Name):
        return 1 if node.id.startswith("u") else 0
    if isinstance(node, ast.UnaryOp):
        return _u_degree(node.operand)
    if isinstance(node, ast.Call):
        return 0 if _u_degree(node.args[0]) == 0 else None
    da, db = _u_degree(node.left), _u_degree(node.right)
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
    c = node.right
    if isinstance(c, ast.Constant) and c.value >= 0 and float(c.value).is_integer():
        return da * int(c.value)
    return None


def max_degree(degrees) -> Optional[int]:
    """Degree in u of several expressions together; None if any is unknown."""
    return None if None in degrees else max(degrees)


def _exact(body) -> bool:
    """Whether the derivative rules cover body: no state in an exponent."""
    return not any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow)
                   and _has_state(n.right) for n in ast.walk(body))


# ---------------------------------------------------------------------------
# code generation

_GUARDED = (OverflowError, ZeroDivisionError, ValueError)
_GLOBALS = {"__builtins__": {}, "float": float, "range": range, "_real_pow": _real_pow,
            "_sin": math.sin, "_cos": math.cos, "_exp": math.exp, "_isfinite": math.isfinite,
            "_nan": math.nan, "_guarded": _GUARDED, "_array": np.array, "_abs": abs,
            "_nan_max": _nan_max, "_off_max": _off_max, "_axis_max": _axis_max,
            "_jumped": _jumped, "_pack": struct.pack, "_FloatingPointError": FloatingPointError}


_LOAD, _STORE = ast.Load(), ast.Store()
# compile needs a position on every node that can carry one; setting it as
# each node is made is far cheaper than ast.fix_missing_locations
_POS = {"lineno": 1, "col_offset": 0}


def _name(name, ctx=_LOAD):
    return ast.Name(name, ctx, **_POS)


def _assign(name, value):
    return ast.Assign([_name(name, _STORE)], value, **_POS)


def _apply(name, *args):
    return ast.Call(_name(name), list(args), [], **_POS)


def _params(*names):
    return ast.arguments(posonlyargs=[], args=[ast.arg(n, **_POS) for n in names],
                         kwonlyargs=[], kw_defaults=[], defaults=[])


class _Code:
    """One generated function (x, u) -> value, built entry by entry.

    An entry is a validated grammar tree.  A number is bound as a constant;
    any other tree is evaluated in its own try, one assignment per node.  A
    state or control named in `inputs` reads that local instead of x or u.
    `consts` holds (node, value) per bound constant: the tree's Constant
    node, or None for a number of the caller's.
    """

    def __init__(self):
        self.consts = []
        self.body = []
        self.values = []
        self.n_temps = 0
        self.inputs = {}
        self.operations = {}

    def local(self, value):
        """Assign value to a new temporary in the body; return its name."""
        name = f"_t{self.n_temps}"
        self.n_temps += 1
        self.body.append(_assign(name, value))
        return name

    def operation(self, op, args):
        """The operand of op, an `ast` operator or the name of a function of
        the generated code, on args: one operand per op and args, operands
        taken by identity and numbers by repr (which tells -0.0 from 0.0),
        so an operation met again is computed once.  A number here is the
        package's own, written as a literal: a tree's numbers come only as
        operands of their constant cells, which `_shaped` rebinds."""
        key = (op, *(a if isinstance(a, _Operand) else repr(a) for a in args))
        if key not in self.operations:
            self.operations[key] = _Operand(self, None, op, args)
        return self.operations[key]

    def _const(self, v, node=None):
        """The name of a new constant cell bound to v, the value of the
        tree's Constant node where it is given."""
        self.consts.append((node, float(v)))
        return _name(f"_c{len(self.consts) - 1}")

    def slots(self, index):
        """What fills each constant cell, for `_shaped`: (i, None) for the
        number i of `_shape`'s tree constants (index maps a Constant node's
        id to it), (None, v) for a number v of the caller's."""
        return tuple((None, v) if node is None else (index[id(node)], None)
                     for node, v in self.consts)

    def _emit(self, root, out):
        """Append the statements computing root to out; return its operand.

        Nodes are visited in evaluation order (left operand, right operand,
        operation) with an explicit stack, so no depth limit applies here.
        `_derivative` shares subtrees (d(ab) = da b + a db): a node met again
        reads the temporary of its first evaluation, so the code grows with
        the number of distinct nodes, not with the size of the tree.  All of
        root's statements run in one try, so the first evaluation has run
        whenever a later read does.
        """
        operands = []
        done = {}
        stack = [(root, False)]
        while stack:
            node, ready = stack.pop()
            if isinstance(node, ast.Constant):
                operands.append(self._const(node.value, node))
                continue
            if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.UAdd):
                stack.append((node.operand, False))
                continue
            if isinstance(node, ast.Name) and node.id in self.inputs:
                operands.append(_name(self.inputs[node.id]))
                continue
            if id(node) in done:
                operands.append(_name(done[id(node)]))
                continue
            if not ready and not isinstance(node, ast.Name):
                stack.append((node, True))
                children = ([node.left, node.right] if isinstance(node, ast.BinOp)
                            else [node.operand] if isinstance(node, ast.UnaryOp)
                            else node.args)
                stack += [(c, False) for c in reversed(children)]
                continue
            if isinstance(node, ast.Name):
                kind, idx = _NAME_RE.match(node.id).groups()
                value = _apply("float", ast.Subscript(_name(kind), ast.Constant(int(idx), **_POS),
                                                      _LOAD, **_POS))
            elif isinstance(node, ast.UnaryOp):
                value = ast.UnaryOp(ast.USub(), operands.pop(), **_POS)
            elif isinstance(node, ast.Call):
                value = _apply("_" + node.func.id, operands.pop())
            else:
                b, a = operands.pop(), operands.pop()
                # a float to a constant integral power is real: that power
                # is the same a ** b inline
                value = (_apply("_real_pow", a, b) if isinstance(node.op, ast.Pow)
                         and not _integral(node.right)
                         else ast.BinOp(a, type(node.op)(), b, **_POS))
            name = f"_t{self.n_temps}"
            self.n_temps += 1
            out.append(_assign(name, value))
            operands.append(_name(name))
            done[id(node)] = name
        (operand,) = operands
        return operand

    def entry(self, item):
        if isinstance(item, ast.Constant):
            self.values.append(self._const(item.value, item))
            return
        name = f"_v{len(self.values)}"
        steps = []
        operand = self._emit(item, steps)
        if steps and steps[-1].targets[0].id == operand.id:
            steps[-1].targets[0].id = name
        else:
            steps.append(_assign(name, operand))
        guard = ast.ExceptHandler(_name("_guarded"), None, [_assign(name, _name("_nan"))],
                                  **_POS)
        self.body.append(ast.Try(steps, [guard], [], [], **_POS))
        self.values.append(_name(name))

    def returning(self, name, shape=()):
        """The definition of name(x, u) -> the entries: a float for shape (),
        a list for (n,), else an array of `shape` filled in row-major order."""
        if len(shape) == 1:
            result = ast.List(self.values, _LOAD, **_POS)
        elif shape:
            result = ast.Call(ast.Attribute(_apply("_array", ast.Tuple(self.values, _LOAD, **_POS)),
                                            "reshape", _LOAD, **_POS),
                              [ast.Constant(n, **_POS) for n in shape], [], **_POS)
        else:
            (result,) = self.values
        return self.define(name, ("x", "u"), result)

    def define(self, name, params, result):
        """The definition of name(*params), which runs the body, then returns
        the expression result."""
        return ast.FunctionDef(name, _params(*params),
                               self.body + [ast.Return(result, **_POS)], [], **_POS)

    def compile(self, fn):
        """_bind(consts) -> the function the definition fn defines, with the
        tuple consts bound to its constant cells in order."""
        name = fn.name
        # the constants are bound once, as cells of an enclosing function
        bind = []
        if self.consts:
            cells = [_name(f"_c{i}", _STORE) for i in range(len(self.consts))]
            bind.append(ast.Assign([ast.Tuple(cells, _STORE, **_POS)], _name("_consts"),
                                   **_POS))
        outer = ast.FunctionDef("_bind", _params("_consts"),
                                bind + [fn, ast.Return(_name(name), **_POS)], [], **_POS)
        namespace = dict(_GLOBALS)
        exec(compile(ast.Module([outer], []), f"<pmpkit.grammar {name}>", "exec"), namespace)
        return namespace["_bind"]


class _Operand:
    """A value in generated code: a local, or an operation on operands and
    numbers.  Its `+`, `-`, `*`, `/` and `abs` record the operation instead
    of doing it (`_Code.operation`), so the package's own code run on
    operands writes its arithmetic in its own order: `flows.rk4_step` the
    stage and combination arithmetic of an RK4 step, `pmp._fit_quadratic`
    the probe fit."""

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

    __add__, __radd__ = _recorded(ast.Add), _recorded(ast.Add, True)
    __sub__ = _recorded(ast.Sub)
    __mul__, __rmul__ = _recorded(ast.Mult), _recorded(ast.Mult, True)
    __truediv__, __rtruediv__ = _recorded(ast.Div), _recorded(ast.Div, True)
    del _recorded

    def __abs__(self):
        return self.code.operation("_abs", (self,))

    def expr(self):
        """The expression of the operand.  An operation read by more than
        one other is assigned to a temporary where it is first needed, so it
        runs once, as in the code that was run on operands."""
        if self.name is None:
            args = [a.expr() if isinstance(a, _Operand) else ast.Constant(a, **_POS)
                    for a in self.args]
            node = (_apply(self.op, *args) if isinstance(self.op, str)
                    else ast.BinOp(args[0], self.op(), args[1], **_POS))
            if self.reads < 2:
                return node
            self.name = self.code.local(node)
        return _name(self.name)

    def local(self):
        """The name of a local holding the operand."""
        if self.name is None:
            self.name = self.code.local(self.expr())
        return self.name


def _recording(code, fn, *names):
    """fn, with each function it calls by one of names recorded into code as
    a call of the generated code, which binds it by name (`_GLOBALS`)."""
    def recorder(name):
        return lambda *args: code.operation(name, args)
    return types.FunctionType(fn.__code__, {**fn.__globals__, **{n: recorder(n) for n in names}})


def _returned(value):
    """The expression of value, an operand, a number, or a list or tuple of
    them.  An operand that an operation reads too is held in a local; it
    runs once where value lists it before the operations that read it."""
    if isinstance(value, (list, tuple)):
        return (ast.List if isinstance(value, list) else ast.Tuple)(
            [_returned(v) for v in value], _LOAD, **_POS)
    if isinstance(value, _Operand):
        return _name(value.local()) if value.reads else value.expr()
    return ast.Constant(value, **_POS)


def _read(code, vec, i):
    """An operand holding float(vec[i]), read once into a local."""
    return _Operand(code, code.local(_apply("float", ast.Subscript(
        _name(vec), ast.Constant(i, **_POS), _LOAD, **_POS))))


def _field_code(trees, k, n):
    """A code that reads once, through float, the controls the trees name
    and the n floats of the state y, with the operands of y."""
    code = _Code()
    read = {node.id for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for j in range(k):
        if f"u{j}" in read:
            code.inputs[f"u{j}"] = _read(code, "u", j).name
    return code, [_read(code, "y", i) for i in range(n)]


def _stage_values(code, entries):
    """Operands of the entries, each evaluated as `_Code.entry` does."""
    start = len(code.values)
    for entry in entries:
        code.entry(entry)
    return [_Operand(code, v.id) for v in code.values[start:]]


def _dynamics_stage(code, bodies):
    """stage(x): the operands of f at the stage state x, for the m trees
    `bodies` of f, as `dynamics` evaluates them."""
    def stage(x):
        code.inputs.update((f"x{i}", xi.local()) for i, xi in enumerate(x))
        return _stage_values(code, bodies)
    return stage


def _linearization(code, jacobian, gradient):
    """(J, g) as `pmp._costate_rate` reads them: the operands of the m x m
    Jacobian trees `jacobian` (row-major) and of the gradient trees, the
    numbers 0.0 without a cost (so that c_j = -0.0 keeps the sign of zero),
    at the state the code's inputs bind, each evaluated as `_Code.entry`
    does."""
    J = _stage_values(code, jacobian)
    return J, [0.0] * math.isqrt(len(J)) if gradient is None else _stage_values(code, gradient)


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


def _run_function(code, name, params, reads, head, y, new, out, nodes, blown):
    """The definition of name(*params) -> node: the statements reads, then
    a loop over the range nodes whose body is head, code.body, out.append
    of the list of the locals new, a return of the node blown unless every
    one of them is finite, and the operands y set to them; None after the
    loop."""
    finite = [_apply("_isfinite", _name(n)) for n in new]
    loop = (head + code.body
            + [ast.Expr(ast.Call(ast.Attribute(_name(out), "append", _LOAD, **_POS),
                                 [ast.List([_name(n) for n in new], _LOAD, **_POS)], [],
                                 **_POS), **_POS),
               ast.If(ast.UnaryOp(ast.Not(), ast.BoolOp(ast.And(), finite, **_POS)
                                  if len(finite) > 1 else finite[0], **_POS),
                      [ast.Return(blown, **_POS)], [], **_POS)]
            + [_assign(yi.name, _name(n)) for yi, n in zip(y, new)])
    code.body = reads + [ast.For(_name("i", _STORE), nodes, loop, [], **_POS)]
    return code.define(name, params, ast.Constant(None, **_POS))


def _at(vec, index):
    return ast.Subscript(_name(vec), index, _LOAD, **_POS)


def _next_node():
    return ast.BinOp(_name("i"), ast.Add(), ast.Constant(1, **_POS), **_POS)


def _dynamics_run_code(bodies, k):
    """(code, definition) of dynamics_run(y, u, ts, i0, i1, xs) -> node:
    the RK4 steps of x' = f(x, u) with u held from y at node i0 to node i1
    of the grid ts, for the m trees `bodies` of f.  Step i has h = ts[i + 1]
    - ts[i] and appends its state to xs as a list: the list `flows.rk4_step`
    returns, whose stage and combination arithmetic `_rk4_step_code` writes
    into the loop body; each of the four stages evaluates the entries as
    `dynamics` does, each in its own try, on the stage's state held in
    locals.  u and y are read through float once, before the loop.  The
    function returns the first node whose state is not finite, that state
    appended, or None."""
    code, y = _field_code(bodies, k, len(bodies))
    reads, code.body = code.body, []
    stage = _dynamics_stage(code, bodies)
    new = [code.local(v) for v in _rk4_step_code(code, y, stage, stage(y))]
    head = [_assign("h", ast.BinOp(_at("ts", _next_node()), ast.Sub(), _at("ts", _name("i")),
                                   **_POS))]
    return code, _run_function(code, "dynamics_run", ("y", "u", "ts", "i0", "i1", "xs"),
                               reads, head, y, new, "xs",
                               _apply("range", _name("i0"), _name("i1")), _next_node())


def _drop_unread(body):
    """body without the entries, each in its own try, whose value no
    statement reads."""
    read = {node.id for stmt in body for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [stmt for stmt in body
            if not (isinstance(stmt, ast.Try) and stmt.body[-1].targets[0].id not in read)]


def _adjoint_run_code(bodies, jacobian, gradient, k, r):
    """(code, definition) of adjoint_run(p, u, c, ts, xs, i0, i1, out) ->
    node: the discrete adjoint of the RK4 steps of x' = f(x, u) with u
    held, as `pmp.adjoint_flows` takes it, stepping the m x r block p
    (column after column) back from node i1 to node i0 of the grid ts, for
    the m trees `bodies` of f, the Jacobian trees `jacobian` (row-major)
    and the gradient trees, None without a cost; c holds the r column
    multipliers c = -p0.

    Step i retraces the forward step from the node state xs[i] with h =
    ts[i + 1] - ts[i]: `flows._recorded_step` runs once on `_Operand`s and
    linearizes at its four stage states (J and g, as `_coupled_stage`
    evaluates them).  The block then steps back by the list `rk4_step`
    returns with step hb = ts[i] - ts[i + 1] on `pmp._costate_rate` of
    those linearizations in reverse stage order, and is appended to out as
    a list.  The forward step's own new state, and so f at its fourth
    stage, is never read, and is not evaluated.  u, c and p are read
    through float once, before the loop.  The function returns the first
    node i whose block is not finite, that block appended, or None."""
    m = len(bodies)
    code, _ = _field_code([*bodies, *(gradient or ())], k, 0)
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
    code.body = _drop_unread(code.body)
    i, nxt = _name("i"), _next_node()
    head = [_assign("x", _at("xs", i)),
            _assign("h", ast.BinOp(_at("ts", nxt), ast.Sub(), _at("ts", i), **_POS)),
            _assign("hb", ast.BinOp(_at("ts", i), ast.Sub(), _at("ts", nxt), **_POS))]
    nodes = _apply("range", ast.BinOp(_name("i1"), ast.Sub(), ast.Constant(1, **_POS), **_POS),
                   ast.BinOp(_name("i0"), ast.Sub(), ast.Constant(1, **_POS), **_POS),
                   ast.Constant(-1, **_POS))
    return code, _run_function(code, "adjoint_run", ("p", "u", "c", "ts", "xs", "i0", "i1", "out"),
                               reads, head, p, new, "out", nodes, _name("i"))


def _coupled_step_code(bodies, jacobian, gradient, k, step):
    """(code, definition) of the coupled (x, p) field of `_coupled_stage`
    at u held: coupled_stage(y, u, c) -> list, the field at y, or, with
    step, coupled_step(y, u, h, k1, c) -> list, one RK4 step from y with
    step h whose first stage k1 is coupled_stage(y, u, c)."""
    code, y = _field_code([*bodies, *(gradient or ())], k, 2 * len(bodies))
    stage = _coupled_stage(code, bodies, jacobian, gradient)
    if not step:
        return code, code.define("coupled_stage", ("y", "u", "c"),
                                 ast.List([v.expr() for v in stage(y)], _LOAD, **_POS))
    k1 = [_Operand(code, code.local(ast.Subscript(_name("k1"), ast.Constant(i, **_POS),
                                                  _LOAD, **_POS)))
          for i in range(len(y))]
    return code, code.define("coupled_step", ("y", "u", "h", "k1", "c"),
                             ast.List(_rk4_step_code(code, y, stage, k1), _LOAD, **_POS))


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
    names = {id(tree): sorted({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)})
             for tree in trees}
    read = set().union(*names.values())
    m, k = len(bodies), len(points[0])
    if any(name[0] == "u" and int(name[1:]) >= k for name in read):
        return None
    code, entries = _Code(), {}
    for i in range(m):
        if f"x{i}" in read:
            code.inputs[f"x{i}"] = _read(code, "x", i).name
    p = [_Operand(code, code.local(_at("p", ast.Constant(i, **_POS)))) for i in range(m)]
    p0f = _Operand(code, "p0f")

    def value(tree):
        key = (id(tree), *map(code.inputs.get, names[id(tree)]))
        if key not in entries:
            entries[key] = _stage_values(code, [tree])[0]
        return entries[key]

    values = []
    for u in points:
        for j in range(k):
            if f"u{j}" in read:
                code.inputs[f"u{j}"] = code._const(u[j]).id
        values.append(_h_sum(p0f, 0.0 if cost is None else value(cost), p,
                             [value(body) for body in bodies]))
    probes = types.SimpleNamespace(k=k, axes=axes, pairs=pairs)
    fit = _recording(code, _fit_quadratic, "_nan_max", "_off_max")(values, probes, None, None)
    return code, code.define("probe_fit", ("p", "x", "p0f"), _returned(fit))


def _arc_code(m, sides, fit_tol, jump_tol):
    """(code, definition) of arc(h, c, p0f, stage, step, fit, decide) ->
    (run, trial), `shooting._propagator`'s generated loop and trial for
    states y = (x, p) of 2m floats held in lists, the box maximizer's
    `sides` and tolerance fit_tol and the jump tolerance jump_tol.  arc
    binds what is fixed for a problem: the step h, c = -p0, p0f = p0, the
    coupled field's stage(y, u, c) and step(y, u, h, k1, c)
    (`coupled_step`), the probe fit fit(p, x, p0f) and decide(y, fit), the
    maximizer's control at y from its fit.  So it is compiled once per box
    and tolerances.

    trial(y, u, dt, k1) -> (ym, um, jumped) steps dt from y with the
    control u held, whose first stage is k1, fits H at the state ym it
    reaches and decides the control um there as a list: `pmp._model_tol`
    and `pmp._axis_maxima` run on the operands of the fit's values, with
    `pmp._axis_max` called by name, where the off-diagonal part of the fit
    clears ztol, else decide.  jumped is `shooting._jumped` of um against
    u, not called where the two have the same bits.  It raises
    FloatingPointError where ym is not finite.

    run(y, u, t, b, eps, steps) makes the whole steps of h from the state y
    at t with the control u while b - t > eps and b - t is not below h.  A
    step is the trial of h / 2 with u and k1 = stage(y, u, c), reaching yh
    and uh, then the trial of h with uh and k1h, which is k1 where uh has
    u's bits and stage(y, uh, c) otherwise, reaching y1 and u1; it appends
    (t, uh) to steps and moves on to (t + h, y1, u1).  At a
    jump it returns (t, y, u, bracket), what the bisection reads: (u, k1,
    0.0, h / 2, yh, uh) at the half step and (uh, k1h, lo, h, y1, u1) at
    the full step, lo h / 2 where k1h is k1 and 0.0 otherwise.  After its
    last whole step it returns (t, y, u, None), and None at the first
    state that is not finite.  sides holds Python floats, which the
    decision binds as numbers."""
    code = _Code()

    def item(value, *index):
        node = _name(value)
        for i in index:
            node = ast.Subscript(node, ast.Constant(i, **_POS), _LOAD, **_POS)
        return node

    def part(value, lower, upper):
        bound = [None if v is None else ast.Constant(v, **_POS) for v in (lower, upper)]
        return _at(value, ast.Slice(*bound, None, **_POS))

    def tup(*names):
        return ast.Tuple([_name(v) if isinstance(v, str) else v for v in names], _LOAD, **_POS)

    def call(fn, *args):
        return _apply(fn, *(_name(a) if isinstance(a, str) else a for a in args))

    def same(v, w):
        # whether the lists v and w hold floats with the same bits: the
        # same objects (an axis maximum at a bound returns the bound's),
        # else the same packed bytes
        objects = [ast.Compare(item(v, j), [ast.Is()], [item(w, j)], **_POS)
                   for j in range(len(sides))]
        bits = [ast.Call(_name("_pack"), [ast.Constant("%dd" % len(sides), **_POS),
                                          ast.Starred(_name(u), _LOAD, **_POS)], [], **_POS)
                for u in (v, w)]
        return ast.BoolOp(ast.Or(), [
            ast.BoolOp(ast.And(), objects, **_POS) if len(objects) > 1 else objects[0],
            ast.Compare(bits[0], [ast.Eq()], bits[1:], **_POS)], **_POS)

    def reached(v, fit, um, u, dt, k1, blown):
        # the trial of dt with u: the state v, its fit and the control um;
        # blown runs where v is not finite.  Whether um has u's bits is
        # kept in the local "same"; returned is the test that um jumps
        code.body.append(_assign(v, call("step", "y", u, dt, k1, "c")))
        code.body.append(ast.If(ast.UnaryOp(ast.Not(), ast.BoolOp(ast.And(), [
            _apply("_isfinite", item(v, i)) for i in range(2 * m)], **_POS), **_POS),
            [blown], [], **_POS))
        code.body.append(_assign(fit, call("fit", part(v, m, None), part(v, None, m), "p0f")))
        b, a = ([_Operand(code, code.local(item(fit, i, j))) if side[3] > 0 else None
                 for j, side in enumerate(sides)] for i in (0, 1))
        bmax, cmax, off = (_Operand(code, code.local(item(fit, i))) for i in (3, 4, 5))
        ztol = _model_tol(bmax, cmax, fit_tol)
        separable = ast.Compare(_name(off.name), [ast.LtE()], [_name(ztol.local())], **_POS)
        # the decision's statements, temporaries included, run only where
        # the fit is separable
        mark = len(code.body)
        code.body.append(_assign(um, _returned(
            _recording(code, _axis_maxima, "_axis_max")(b, a, ztol, sides))))
        decided = code.body[mark:]
        del code.body[mark:]
        code.body += [ast.If(separable, decided, [_assign(um, call("decide", v, fit))], **_POS),
                      _assign("same", same(um, u))]
        return ast.BoolOp(ast.And(), [ast.UnaryOp(ast.Not(), _name("same"), **_POS),
                                      call("_jumped", um, u, ast.Constant(jump_tol, **_POS))],
                          **_POS)

    jumped = reached("ym", "fm", "um", "u", "dt", "k1",
                     ast.Raise(_name("_FloatingPointError"), None, **_POS))
    trial = code.define("trial", ("y", "u", "dt", "k1"), tup("ym", "um", jumped))
    code.body = []

    def handed(test, *bracket):
        # at a jump, the start of the step and the bracket
        code.body.append(ast.If(test, [ast.Return(tup("t", "y", "u", tup(*bracket)), **_POS)],
                                [], **_POS))

    none, zero = ast.Constant(None, **_POS), ast.Constant(0.0, **_POS)
    blown = ast.Return(none, **_POS)
    code.body.append(_assign("k1", call("stage", "y", "u", "c")))
    handed(reached("yh", "fh", "uh", "u", "hh", "k1", blown), "u", "k1", zero, "hh", "yh", "uh")
    code.body.append(ast.If(_name("same"), [_assign("k1h", _name("k1")),
                                            _assign("lo", _name("hh"))],
                            [_assign("k1h", call("stage", "y", "uh", "c")), _assign("lo", zero)],
                            **_POS))
    handed(reached("y1", "f1", "u1", "uh", "h", "k1h", blown), "uh", "k1h", "lo", "h", "y1", "u1")
    code.body.append(ast.Expr(ast.Call(ast.Attribute(_name("steps"), "append", _LOAD, **_POS), [
        tup("t", "uh")], [], **_POS), **_POS))
    code.body += [_assign("t", ast.BinOp(_name("t"), ast.Add(), _name("h"), **_POS)),
                  _assign("y", _name("y1")), _assign("u", _name("u1"))]
    left = ast.BinOp(_name("b"), ast.Sub(), _name("t"), **_POS)
    going = ast.BoolOp(ast.And(), [
        ast.Compare(left, [ast.Gt()], [_name("eps")], **_POS),
        ast.UnaryOp(ast.Not(), ast.Compare(left, [ast.Lt()], [_name("h")], **_POS), **_POS)],
        **_POS)
    code.body = [ast.While(going, code.body, [], **_POS)]
    run = code.define("run", ("y", "u", "t", "b", "eps", "steps"), tup("t", "y", "u", none))
    code.body = [_assign("hh", ast.BinOp(ast.Constant(0.5, **_POS), ast.Mult(), _name("h"),
                                         **_POS)), trial, run]
    return code, code.define("arc", ("h", "c", "p0f", "stage", "step", "fit", "decide"),
                             tup("run", "trial"))


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
    for tree in trees:
        code.entry(tree)
    return code, code.returning(name, shape)


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
    deeply to compile.
    """
    with _nesting(where):
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
    no memo (below), since only some paths run it: three RK4 forms with u
    held, the box maximizer's probe fit, and shooting's loop on a finite
    box.
    - `f.runner()` returns run(y, u, ts, i0, i1, xs), the RK4 steps of
      x' = f(x, u) (n = m) from y at node i0 to node i1 of the grid ts in
      one loop: step i appends to xs the list `flows.rk4_step(lambda t, x:
      f(x, u), t, x, h, f(x, u))` returns for h = ts[i + 1] - ts[i], bit
      for bit.  It returns the first node whose state is not finite (that
      state appended), or None.
    - `f.coupled_step(df_dx, F, dF_dx)` returns (stage, step) for shooting's
      coupled field x' = f(x, u), p' = c dF/dx - (df/dx)^T p with c = -p0,
      for a system with Jacobian df_dx, cost F (None without a cost) and
      cost gradient dF_dx: stage(y, u, c) is the field at y = (x, p) and
      step(y, u, h, k1, c) one RK4 step from y whose first stage k1 is
      stage(y, u, c), with the bits of `flows.rk4_step` on f and
      `pmp._costate`.
    - `f.adjoint_run(df_dx, F, dF_dx, r)` returns run(p, u, c, ts, xs, i0,
      i1, out), the sweep of `pmp.adjoint_flows` over one control run for
      an m x r block: it steps the block p (column after column) back from
      node i1 to node i0 of the grid ts, node states xs and multipliers c =
      -p0 per column, appending each block to out as a list, bit for bit,
      and returns the first node whose block is not finite (that block
      appended), or None.  Each column steps as its own vector, so a
      block column has the bits of its own sweep.
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
    - `f.arc_run(df_dx, F, dF_dx, sides, fit_tol, jump_tol)` returns
      arc(h, c, p0f, stage, step, fit, decide) -> (run, trial), which binds
      `shooting._propagator`'s generated loop over the whole steps of an
      arc and its generated trial step (`_arc_code`) to a problem's coupled
      stage and step, probe fit and decision, for the box maximizer's
      `sides` (`pmp._Probes`), fit_tol and jump_tol, or None unless the
      system qualifies as for `coupled_step`.  The loop hands back only at
      a jump, after its last whole step, and with None at a state that is
      not finite.  `_propagator` takes it where the maximizer's probe fit
      is generated too: a grammar system on a finite box with plain
      divisors and a declared degree of at most 2.

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
    would be.  The arc loop reads no tree and is kept once per m, sides
    and tolerances, so every dynamics on one box shares it.
    """
    # _derivative and _u_degree recurse once per level of the tree, so they
    # are called here directly: a helper's frame would lower the depth that
    # compiles, here and in compile_gradient below
    degrees, bodies, entries = [], [], []
    for i, src in enumerate(srcs):
        where = f"dynamics.expressions[{i}]"
        with _nesting(where):
            body = _tree(src, m, k, where)
            bodies.append(body)
            degrees.append(_u_degree(body))
            if not _exact(body):
                entries = None
            elif entries is not None:
                for j in range(m):
                    entries.append(_derivative(body, j))

    # `signal_field` asks for the runner once per simulated path, so the
    # shape of f that keys it is taken once, here
    body_shape = _shape([bodies])

    def runner():
        return _shaped("dynamics_run", body_shape, lambda: _dynamics_run_code(bodies, k), k)

    n = len(srcs)
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

    def arc_run(df_dx, F, dF_dx, sides, fit_tol, jump_tol):
        if not qualifies(df_dx, F, dF_dx):
            return None
        sides = np.asarray(sides, dtype=float)
        # the sides keyed by their bytes, which tell -0.0 from 0.0; the loop
        # reads no tree, so every dynamics of m states shares it
        return _shaped("arc", _shape([]), lambda: _arc_code(m, sides.tolist(), fit_tol, jump_tol),
                       m, sides.tobytes(), fit_tol, jump_tol)

    dynamics.runner = runner
    dynamics.arc_run = arc_run
    dynamics.coupled_step = coupled_step
    dynamics.adjoint_run = adjoint_run
    dynamics.probe_fit = probe_fit
    return dynamics, df, max_degree(degrees)


@functools.lru_cache(maxsize=128)
def compile_gradient(src: str, m: int, k: int):
    """Generated dF/dx(x, u) -> list of m floats of a problem's cost expression, or
    None when a state appears in an exponent, with its degree in u.  The
    gradient carries its m entry trees as `entries`, from which the
    dynamics' coupled step evaluates it."""
    with _nesting("cost.expression"):
        body = _tree(src, m, k, "cost.expression")
        degree = _u_degree(body)
        if not _exact(body):
            return None, degree
        entries = []
        for j in range(m):
            entries.append(_derivative(body, j))
    gradient = _entries_function(entries, "gradient", (m,))
    gradient.entries = entries
    return gradient, degree
