"""Dense f64 linear algebra with reverse-mode differentiation on a tape.

All tensors are numpy float64 arrays wrapped in DiffTensor. Each operation
records one vector-Jacobian closure on the active Tape, which maps the output
cotangent to the cotangents of all its operands at once; backward_pass walks
the tape in reverse creation order exactly once.

Matrix ops (matmul, transpose, diag_part, log_diag_sum, cholesky_factor,
triangular_solve) act on the last two axes and broadcast over any leading
ones, so S Monte-Carlo samples run as one op on a stack of S matrices; a
cotangent is summed back over the axes its operand was broadcast along.

Finiteness is checked at the engine's boundaries: every matrix handed to
LAPACK, every cotangent a factorising or solving VJP receives, and (by the
caller, see run_checked) the loss, the gradients and the metrics. A tensor
checks its own values as it is built only inside check_each_tensor, which
run_checked opens to replay a failed run, so that the error names the op
whose output first went non-finite.
"""
from __future__ import annotations

import contextlib
import ctypes
import math

import numpy as np
import scipy.linalg as sla
from scipy.linalg import cython_blas, cython_lapack

__all__ = [
    "Tape", "DiffTensor", "as_tensor", "lift",
    "matmul", "add", "sub", "mul", "div", "transpose", "tsum",
    "elementwise", "cholesky_factor", "triangular_solve", "log_diag_sum",
    "diag_part", "diag_embed", "concat", "reshape",
    "backward_pass", "finite_diff_check", "run_checked",
]

_ACTIVE: list["Tape"] = []
_CHECK_EACH = False     # True inside check_each_tensor


class Tape:
    """Ordered record of operations for one training run (single-threaded).
    Leaving the `with` block drops the record, so reference counting frees
    the graph; run backward_pass inside the block."""

    def __init__(self):
        self._nodes: list[DiffTensor] = []

    def __enter__(self):
        _ACTIVE.append(self)
        return self

    def __exit__(self, *exc):
        assert _ACTIVE and _ACTIVE[-1] is self
        _ACTIVE.pop()
        self._nodes = None
        return False

    def param(self, value, name: str) -> "DiffTensor":
        t = DiffTensor(value, tape=self, name=name)
        self._nodes.append(t)
        return t

    def _record(self, t: "DiffTensor"):
        self._nodes.append(t)


class DiffTensor:
    """Dense real matrix/vector on a recording tape, tagged with the op that
    made it (None for parameters and constants)."""

    __slots__ = ("value", "name", "op", "_tape", "_parents", "_vjp", "_factor")

    def __init__(self, value, tape=None, name=None, parents=(), vjp=None, op=None):
        if value is None:       # np.asarray would make it a NaN scalar
            raise TypeError(f"a DiffTensor needs a value, got None (op {op!r}, name {name!r})")
        self.value = np.asarray(value, dtype=np.float64)
        if _CHECK_EACH and not math.isfinite(self.value.sum()):    # the message is built only then
            _check_finite(self.value, f"output of op {op!r}" if op is not None else
                          f"parameter {name!r}" if name is not None else "constant")
        self.name = name
        self.op = op
        self._tape = tape
        self._parents = parents     # (tracked operand, its position among the op's operands)
        self._vjp = vjp
        self._factor = None     # the _Factor of a cholesky_factor output

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"DiffTensor(shape={self.value.shape}, name={self.name!r})"


def _check_finite(v: np.ndarray, source: str):
    """Raise FloatingPointError naming `source` if v holds inf or NaN: one
    reduction; the full scan only confirms a sum that overflowed."""
    if not math.isfinite(v.sum()) and not np.isfinite(v).all():
        raise FloatingPointError(f"non-finite values in {source}")


@contextlib.contextmanager
def check_each_tensor():
    """Within the block every DiffTensor checks its values as it is built
    and raises FloatingPointError naming the op that made it ("output of op
    '<tag>'"), its parameter or "constant" if they hold inf or NaN."""
    global _CHECK_EACH
    saved, _CHECK_EACH = _CHECK_EACH, True
    try:
        yield
    finally:
        _CHECK_EACH = saved


def run_checked(fn, finite):
    """fn(), run without per-tensor checks. If it raises ArithmeticError or
    ValueError (LinAlgError is one), or finite(result) is False, fn runs
    again inside check_each_tensor and that run's result or error is the
    outcome: the run as the engine made it when every tensor checked itself,
    which raises at the first non-finite output, naming its op. fn must
    reproduce its run (draw from streams it makes afresh), and only a failed
    run pays for the replay."""
    try:
        out = fn()
        if finite(out):
            return out
    except (ArithmeticError, ValueError):
        pass
    with check_each_tensor():
        return fn()


def as_tensor(x) -> DiffTensor:
    if isinstance(x, DiffTensor):
        return x
    return DiffTensor(x)


def lift(value, parents, vjp, op: str) -> DiffTensor:
    """Create a tensor from a custom op.

    parents: the op's operands; vjp(g) maps the output cotangent g to one
    cotangent per operand, in operand order, so work the operands' cotangents
    share runs once. The node keeps only its tracked operands, each with its
    position; the output is tracked iff a tape is active and some operand is
    tracked. op tags the node and names the op in the error raised for a
    non-finite output.
    """
    tape = _ACTIVE[-1] if _ACTIVE else None
    kept = [] if tape is None else [(p, k) for k, p in enumerate(parents) if _tracked(p)]
    out = DiffTensor(value, tape=tape if kept else None, parents=kept,
                     vjp=vjp if kept else None, op=op)
    if kept:
        tape._record(out)
    return out


def _tracked(p) -> bool:
    return isinstance(p, DiffTensor) and p._tape is not None


def _records(parents) -> bool:
    """Whether lift would record a node over parents (a tape is active and
    some operand is tracked), for an op that keeps what its VJP reads only
    then."""
    return bool(_ACTIVE) and any(map(_tracked, parents))


def _mT(x):
    """Swap the last two axes (the transpose of each matrix in a stack)."""
    return np.swapaxes(x, -1, -2)


def _unbroadcast(g, shape):
    """Reduce cotangent g back to `shape` after numpy broadcasting."""
    g = np.asarray(g, dtype=np.float64)
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


# -- core ops ---------------------------------------------------------------

def matmul(a, b) -> DiffTensor:
    a, b = as_tensor(a), as_tensor(b)
    av, bv = a.value, b.value
    if av.ndim == 2 and bv.ndim == 1:
        if av.shape[1] != bv.shape[0]:
            raise ValueError(f"matmul shape mismatch: {av.shape} @ {bv.shape}")
        return lift(av @ bv, (a, b), lambda g: (np.outer(g, bv), av.T @ g), "matmul")
    if av.ndim < 2 or bv.ndim < 2 or av.shape[-1] != bv.shape[-2]:
        raise ValueError(f"matmul shape mismatch: {av.shape} @ {bv.shape}")
    return lift(av @ bv, (a, b), lambda g: (_unbroadcast(g @ _mT(bv), av.shape),
                                            _unbroadcast(_mT(av) @ g, bv.shape)), "matmul")


def add(a, b) -> DiffTensor:
    a, b = as_tensor(a), as_tensor(b)
    return lift(a.value + b.value, (a, b), lambda g: (
        _unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)), "add")


def sub(a, b) -> DiffTensor:
    a, b = as_tensor(a), as_tensor(b)
    return lift(a.value - b.value, (a, b), lambda g: (
        _unbroadcast(g, a.value.shape), _unbroadcast(-g, b.value.shape)), "sub")


def mul(a, b) -> DiffTensor:
    a, b = as_tensor(a), as_tensor(b)
    return lift(a.value * b.value, (a, b), lambda g: (
        _unbroadcast(g * b.value, a.value.shape), _unbroadcast(g * a.value, b.value.shape)), "mul")


def div(a, b) -> DiffTensor:
    return mul(a, elementwise("reciprocal", b))


def transpose(a) -> DiffTensor:
    """Swap the last two axes: the transpose of a matrix or of each matrix in
    a stack."""
    a = as_tensor(a)
    return lift(_mT(a.value), (a,), lambda g: (_mT(g),), "transpose")


def tsum(a, axis=None) -> DiffTensor:
    a = as_tensor(a)
    val = a.value.sum(axis=axis)

    def vjp(g):
        g = np.asarray(g, dtype=np.float64)
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.value.shape).copy(),)

    return lift(val, (a,), vjp, "tsum")


def reshape(a, shape) -> DiffTensor:
    a = as_tensor(a)
    return lift(a.value.reshape(shape), (a,), lambda g: (g.reshape(a.value.shape),), "reshape")


def concat(parts, axis=0) -> DiffTensor:
    parts = [as_tensor(p) for p in parts]
    val = np.concatenate([p.value for p in parts], axis=axis)
    offsets = np.cumsum([0] + [p.value.shape[axis] for p in parts])
    lead = (slice(None),) * (axis % val.ndim)

    def vjp(g):
        return [g[lead + (slice(lo, hi),)] for lo, hi in zip(offsets[:-1], offsets[1:])]

    return lift(val, parts, vjp, "concat")


def diag_part(a) -> DiffTensor:
    """Leading diagonal of a matrix, or of each matrix in a stack."""
    a = as_tensor(a)
    i = np.arange(min(a.value.shape[-2:]))

    def vjp(g):
        out = np.zeros_like(a.value)
        out[..., i, i] = g
        return (out,)

    return lift(np.diagonal(a.value, axis1=-2, axis2=-1).copy(), (a,), vjp, "diag_part")


def diag_embed(v) -> DiffTensor:
    """The diagonal matrix of a vector, or one per vector of a stack."""
    v = as_tensor(v)
    i = np.arange(v.value.shape[-1])
    out = np.zeros(v.value.shape + i.shape)
    out[..., i, i] = v.value
    return lift(out, (v,), lambda g: (g[..., i, i],), "diag_embed")


# -- elementwise family -----------------------------------------------------

def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def elementwise(tag, x, a=1.0, b=0.0) -> DiffTensor:
    """Elementwise map. tag in {exp, log, relu, square, reciprocal, affine,
    sqrt, sigmoid}; affine computes a*x + b for python scalars a, b."""
    x = as_tensor(x)
    v = x.value
    if tag == "exp":
        val = np.exp(v)
        d = val
    elif tag == "log":
        if np.any(v <= 0):
            raise ValueError("log domain violation: non-positive input in op 'log'")
        val = np.log(v)
        d = 1.0 / v
    elif tag == "relu":
        val = np.maximum(v, 0.0)
        d = (v > 0).astype(np.float64)
    elif tag == "square":
        val = v * v
        d = 2.0 * v
    elif tag == "reciprocal":
        if np.any(v == 0):
            raise ValueError("reciprocal domain violation: zero input in op 'reciprocal'")
        val = 1.0 / v
        d = -val * val
    elif tag == "affine":
        val = a * v + b
        d = a
    elif tag == "sqrt":
        if np.any(v < 0):
            raise ValueError("sqrt domain violation: negative input in op 'sqrt'")
        val = np.sqrt(v)
        d = 0.5 / np.maximum(val, 1e-300)
    elif tag == "sigmoid":
        val = _sigmoid(v)
        d = val * (1.0 - val)
    else:
        raise ValueError(f"unknown elementwise tag {tag!r}")
    return lift(val, (x,), lambda g: (g * d,), tag)


# -- factorizations ---------------------------------------------------------

_POTRF = sla.get_lapack_funcs("potrf", (np.zeros((1, 1)),))
_STRICT_LOWER = {}      # n -> the mask of an n x n matrix's strict lower triangle


def _chol_with_jitter(s: np.ndarray, op: str):
    """Lower Cholesky factor of a symmetric matrix s, or of each matrix of a
    stack: _chol_in_place on one symmetrised copy of s (s is only read),
    whose factors' strict upper triangles are then set to +0.0. An s that
    is not square and symmetric, or whose copy holds inf or NaN, raises
    naming op."""
    _check_symmetric(s, op)
    sym = np.add(s, _mT(s), order="C")
    sym *= 0.5
    _check_finite(sym, f"input of op {op!r}")
    L = _chol_in_place(sym, op)
    n = sym.shape[-1]
    if n not in _STRICT_LOWER:
        _STRICT_LOWER[n] = np.tri(n, k=-1, dtype=bool)
    np.copyto(sym, 0.0, where=_STRICT_LOWER[n])
    return L


def _chol_in_place(sym: np.ndarray, op: str):
    """Lower Cholesky factor of a C-ordered symmetric matrix sym, or of each
    matrix of a stack, in place: LAPACK potrf factorises each member (its
    transpose is the Fortran matrix LAPACK reads), and a member that fails
    goes up the jitter ladder on its own, so every matrix gets the jitter it
    would alone. potrf reads and writes only each matrix's upper triangle;
    a rung rebuilds it from the strict lower one and the saved diagonal. So
    the factors, Fortran-ordered views of sym, keep sym's strict lower
    triangle in their strict upper one. Past the top rung the error names
    op. sym must be finite, which each caller checks (_chol_with_jitter and
    gp_models._se_exact_fit, each in one pass over the matrix it built):
    potrf factorises NaN without complaint, and NaN passes
    _check_symmetric."""
    diag = np.diagonal(sym, axis1=-2, axis2=-1).copy()
    for i in np.ndindex(sym.shape[:-2]):
        if _POTRF(sym[i].T, lower=1, overwrite_a=1, clean=0)[1]:
            _jitter_ladder(sym[i], diag[i], op)
    return _mT(sym)


def _jitter_ladder(m: np.ndarray, diag: np.ndarray, op: str):
    """Factorise into m in place, as _chol_in_place does, the symmetric
    matrix with m's strict lower triangle and diagonal diag, with jitter
    1e-8*mean(diag) doubling to 1e-4*mean(diag): a failed potrf overwrites
    m's upper triangle, so each attempt rebuilds it from the strict lower
    one, which potrf leaves as it was."""
    n = m.shape[0]
    i = np.arange(n)

    def attempt(jit):
        _mirror_lower(m)
        m[i, i] = diag + jit
        return _POTRF(m.T, lower=1, overwrite_a=1, clean=0)[1]

    scale = float(np.mean(diag))
    if scale <= 0:
        scale = 1.0
    jit = 1e-8 * scale
    while jit <= 1e-4 * scale:
        if attempt(jit) == 0:
            return
        jit *= 2.0
    # the offending pivot: the order of the first leading minor that is not
    # positive definite at the maximum jitter, as LAPACK reports it
    info = attempt(1e-4 * scale)
    raise np.linalg.LinAlgError(
        f"matrix not positive definite after max jitter (pivot {info or n} of {n}) in op {op!r}")


_TRTRS = sla.get_lapack_funcs("trtrs", (np.zeros((1, 1)),))


def _trtrs(l: np.ndarray, b: np.ndarray, trans: bool, op: str):
    """x with l x = b (l^T x = b when trans) for one lower-triangular matrix,
    by LAPACK as scipy's solve_triangular calls it (a C-ordered l is solved
    as its transpose), without its input scan; a singular l raises naming
    op."""
    if l.flags.f_contiguous:
        x, info = _TRTRS(l, b, lower=1, trans=int(trans))
    else:
        x, info = _TRTRS(l.T, b, lower=0, trans=int(not trans))
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular matrix: resolution failed at diagonal {info - 1} in op {op!r}")
    return x


def _solve_tri(l: np.ndarray, b: np.ndarray, trans: bool, op: str):
    """_trtrs over the broadcast leading axes of l and b (b a matrix or a
    stack of them). One matrix l is solved against a stack of right-hand
    sides of two or more columns each in one call, on their columns side by
    side; otherwise one call runs per matrix, since LAPACK takes another
    path for one column, whose rounding a merged call would change. A stack
    of factors that _Factor has inverted is solved by one matmul instead;
    this serves single matrices, matrices that are not factors and
    ill-conditioned stacks. A b that holds inf or NaN raises naming op; l
    is a factor of a matrix _chol_in_place checked, or its caller checks it
    (_solver)."""
    _check_finite(b, f"input of op {op!r}")
    if l.ndim == 2 and b.ndim == 2:
        return _trtrs(l, b, trans, op)
    n, k = b.shape[-2:]
    if l.ndim == 2 and k > 1:
        lead = b.shape[:-2]
        # member s's columns are columns s k, ..., s k + k - 1 of one (n, S k)
        # matrix. LAPACK returns x Fortran-ordered, so x^T read as (S, k, n)
        # is the buffer of Fortran-ordered matrices that the loop below fills
        x = _trtrs(l, _mT(b).reshape(-1, n).T, trans, op)
        return _mT(x.T.reshape(lead + (k, n)))
    batch = np.broadcast_shapes(l.shape[:-2], b.shape[:-2])
    ls = np.broadcast_to(l, batch + l.shape[-2:])
    bs = np.broadcast_to(b, batch + b.shape[-2:])
    x = _mT(np.empty(batch + (k, n)))   # Fortran-ordered matrices, as LAPACK returns them
    for i in np.ndindex(*batch):
        x[i] = _trtrs(ls[i], bs[i], trans, op)
    return x


_TRTRI = sla.get_lapack_funcs("trtri", (np.zeros((1, 1)),))
_MAX_COND = 1e3     # the largest one-norm condition number solved by an inverse


def _tri_inverse(L: np.ndarray):
    """The inverse of each lower-triangular matrix of a stack, by LAPACK
    trtri in place on one copy of L (Fortran-ordered per matrix, as the
    factors are), or None if some member has a one-norm condition number
    ||L||_1 ||L^{-1}||_1 above _MAX_COND: the forward error of L^{-1} b is
    about that number times the unit roundoff, against trtrs's backward
    stable solve."""
    inv = _mT(_mT(L).copy())
    for i in np.ndindex(inv.shape[:-2]):
        if _TRTRI(inv[i], lower=1, overwrite_c=1)[1]:
            return None
    cond = np.abs(L).sum(axis=-2).max(axis=-1) * np.abs(inv).sum(axis=-2).max(axis=-1)
    return inv if np.all(cond <= _MAX_COND) else None


class _Factor:
    """Solves against the output of cholesky_factor, forward and backward.

    A stack of factors is inverted (_tri_inverse) the first time anything
    solves against it; from then on every solve is one stacked matmul with
    the inverses. A single matrix, or a stack that is ill-conditioned, is
    solved by _solve_tri's trtrs calls instead."""

    __slots__ = ("L", "op", "inv", "_tried")

    def __init__(self, L: np.ndarray, op: str):
        self.L = L
        self.op = op                # the op that factorised
        self.inv = None             # L^{-1} per member, once built
        self._tried = L.ndim == 2   # single matrices are never inverted

    def solve(self, b: np.ndarray, trans: bool, op=None):
        """x with L x = b (L^T x = b when trans), broadcast as _solve_tri,
        in op (by default the op that factorised)."""
        if not self._tried:
            self._tried = True
            self.inv = _tri_inverse(self.L)
        if self.inv is None:
            return _solve_tri(self.L, b, trans, op or self.op)
        return (_mT(self.inv) if trans else self.inv) @ b

    def adjoint(self, g):
        """The Cholesky VJP: the cotangent of the factorised matrix, made
        symmetric, from the cotangent g of L (Murray 2016, arXiv
        1602.07527). With P = Phi(L^T g), it is S + S^T halved, S = L^{-T}
        (L^{-T} P^T)^T. g's strict upper triangle does not enter it."""
        p = _phi(_mT(self.L) @ g)
        s = self.solve(_mT(self.solve(_mT(p), True)), True)
        out = s + _mT(s)
        out *= 0.5
        return out


def _phi(x):
    """Lower triangle with halved diagonal (Cholesky reverse-mode helper)."""
    out = np.tril(x)
    i = np.arange(x.shape[-1])
    out[..., i, i] *= 0.5
    return out


def _check_symmetric(v: np.ndarray, op: str):
    """Raise ValueError naming op unless v is a square matrix, or a stack of
    them, symmetric to 1e-10 of its largest entry: each upper tile of 256 x
    256 is compared with its mirror, so no temporary exceeds a tile."""
    if v.ndim < 2 or v.shape[-1] != v.shape[-2]:
        raise ValueError(f"requires a square matrix in op {op!r}")
    n, b = v.shape[-1], 256
    asym = 0.0
    for k in range(0, n, b):
        for j in range(k, n, b):
            d = v[..., k:k + b, j:j + b] - _mT(v[..., j:j + b, k:k + b])
            asym = max(asym, np.abs(d, out=d).max())
    if asym > 1e-10 * max(1.0, v.max(), -v.min()):
        raise ValueError(f"requires a symmetric matrix in op {op!r}")


_CAPSULE_NAME = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_CAPSULE_POINTER = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))
_CHAR, _INT, _PTR = ctypes.c_char_p, ctypes.POINTER(ctypes.c_int), ctypes.c_void_p


def _scipy_c_function(module, name: str, *argtypes):
    """A ctypes handle on the C function `name` that scipy's Cython BLAS or
    LAPACK module exports. It takes pointers, so it runs on a sub-block of a
    buffer, which scipy's f2py wrappers would copy unless it is contiguous.
    Its signature, read from the capsule, must pass characters and LP64
    integers where argtypes says so."""
    capsule = module.__pyx_capi__[name]
    sig = _CAPSULE_NAME(capsule)
    params = sig.decode()[sig.index(b"(") + 1:-1].split(", ")
    want = {_CHAR: "char *", _INT: "int *"}
    if len(params) != len(argtypes) or any(want.get(t, p) != p for t, p in zip(argtypes, params)):
        raise ImportError(f"scipy's {name} has the signature {sig.decode()!r}")
    return ctypes.CFUNCTYPE(None, *argtypes)(_CAPSULE_POINTER(capsule, sig))


# integer arguments and info are passed as ctypes.c_int objects, which ctypes
# hands over by reference
_DTRMM = _scipy_c_function(cython_blas, "dtrmm", _CHAR, _CHAR, _CHAR, _CHAR, _INT, _INT,
                           ctypes.POINTER(ctypes.c_double), _PTR, _INT, _PTR, _INT)
_DTRTRI = _scipy_c_function(cython_lapack, "dtrtri", _CHAR, _CHAR, _INT, _PTR, _INT, _INT)
_DLAUUM = _scipy_c_function(cython_lapack, "dlauum", _CHAR, _INT, _PTR, _INT, _INT)
_LEAF = 128     # the largest diagonal block _tri_inverse_blocks hands to trtri


def _tri_inverse_blocks(a: int, ld: int, off: int, n: int) -> int:
    """Invert in place the lower-triangular n x n block at row and column off
    of the column-major matrix at address a, with leading dimension ld.
    Split as [[A, 0], [B, C]], A of n // 2 rows, A and C are inverted by
    recursion, down to blocks of at most _LEAF rows, which LAPACK trtri
    inverts; then B becomes -C^{-1} B A^{-1} by two BLAS trmm calls. Reads
    and writes only the block's lower triangle. Returns trtri's info at the
    whole matrix's rows: 0, or the 1-based index of the first zero on the
    diagonal."""
    def at(r, c):
        return a + 8 * (r + c * ld)

    if n <= _LEAF:
        info = ctypes.c_int(0)
        _DTRTRI(b"L", b"N", ctypes.c_int(n), at(off, off), ctypes.c_int(ld), info)
        return info.value and off + info.value
    n1, n2 = n // 2, n - n // 2
    info = _tri_inverse_blocks(a, ld, off, n1) or _tri_inverse_blocks(a, ld, off + n1, n2)
    if info:
        return info
    for side, alpha, tri in ((b"R", -1.0, at(off, off)), (b"L", 1.0, at(off + n1, off + n1))):
        _DTRMM(side, b"L", b"N", b"N", ctypes.c_int(n2), ctypes.c_int(n1), ctypes.c_double(alpha),
               tri, ctypes.c_int(ld), at(off + n1, off), ctypes.c_int(ld))
    return 0


def _potri(L: np.ndarray, op: str):
    """(L L^T)^{-1} in place on each Fortran-ordered lower factor of L, as
    LAPACK potri forms it, with no temporary of the factor's size:
    _tri_inverse_blocks inverts the factor, and LAPACK lauum forms L^{-T}
    L^{-1} from it. Each factor's lower triangle becomes that of (L
    L^T)^{-1}, and its strict upper one is left as it was. Returns L; a
    failure raises naming op and, as potri would, the index of the first
    zero on the diagonal."""
    n = L.shape[-1]
    for i in np.ndindex(L.shape[:-2]):
        m = L[i]
        if not (m.dtype == np.float64 and m.shape == (n, n) and m.flags.f_contiguous
                and m.flags.writeable):
            raise ValueError(f"potri needs writeable Fortran-ordered float64 square factors "
                             f"in op {op!r}")
        info = _tri_inverse_blocks(m.ctypes.data, n, 0, n)
        if info == 0:
            lauum_info = ctypes.c_int(0)
            _DLAUUM(b"L", ctypes.c_int(n), m.ctypes.data, ctypes.c_int(n), lauum_info)
            info = lauum_info.value
        if info != 0:
            raise np.linalg.LinAlgError(f"potri failed: info {info} in op {op!r}")
    return L


def _mirror_lower(a: np.ndarray):
    """Copy the strict lower triangle of each matrix of a onto its strict
    upper one in place, one 128 x 128 tile at a time (numpy copies a tile
    before writing it to the buffer it reads from)."""
    n, b = a.shape[-1], 128
    for k in range(0, n, b):
        blk = a[..., k:k + b, k:k + b]
        blk[...] = np.tril(blk) + _mT(np.tril(blk, -1))
        for j in range(k + b, n, b):
            a[..., k:k + b, j:j + b] = _mT(a[..., j:j + b, k:k + b])


def cholesky_factor(s) -> DiffTensor:
    """Lower Cholesky factor of a symmetric PD matrix, or of each matrix in a
    stack, with the jitter policy. The output carries a _Factor, which its
    VJP and every triangular_solve against the output share."""
    s = as_tensor(s)
    factor = _Factor(_chol_with_jitter(s.value, "cholesky_factor"), "cholesky_factor")

    def vjp(g):
        _check_finite(g, "cotangent of op 'cholesky_factor'")
        return (factor.adjoint(g),)

    out = lift(factor.L, (s,), vjp, "cholesky_factor")
    out._factor = factor
    return out


def _solver(l: DiffTensor, op: str):
    """solve(b, trans) against the lower-triangular operand l of op: its
    _Factor's, or _solve_tri's on l's value, which is first checked to be
    finite. Raises naming op unless l is square with no zero on its
    diagonal."""
    lv = l.value
    if lv.ndim < 2 or lv.shape[-1] != lv.shape[-2]:
        raise ValueError(f"requires a square triangular factor in op {op!r}")
    if np.any(np.diagonal(lv, axis1=-2, axis2=-1) == 0):
        raise ValueError(f"zero diagonal element in op {op!r}")
    if l._factor is not None:
        return lambda b, trans: l._factor.solve(b, trans, op)
    _check_finite(lv, f"input of op {op!r}")
    return lambda b, trans: _solve_tri(lv, b, trans, op)


def triangular_solve(l, b, trans=False) -> DiffTensor:
    """Solve l x = b (or l^T x = b when trans) for lower-triangular l: b a
    vector, a matrix or a stack of matrices, l a matrix or a stack. Both
    operands' cotangents share one solve. Against a stack of factors from
    cholesky_factor, the forward and that solve are each one matmul with the
    factors' inverses (see _Factor); against anything else, LAPACK trtrs
    runs once per matrix, or once for a stack of b against one l
    (_solve_tri)."""
    l, b = as_tensor(l), as_tensor(b)
    lv, bv = l.value, b.value
    solve = _solver(l, "triangular_solve")
    squeeze = bv.ndim == 1
    if squeeze and lv.ndim != 2:
        raise ValueError("triangular_solve: a vector right-hand side needs one factor")
    x = solve(bv[:, None] if squeeze else bv, trans)

    def vjp(g):
        _check_finite(g, "cotangent of op 'triangular_solve'")
        gb = solve(g[:, None] if squeeze else g, not trans)   # b's, before unbroadcasting
        ga = -gb @ _mT(x)   # cotangent to the (possibly transposed) operator
        return (_unbroadcast(np.tril(_mT(ga) if trans else ga), lv.shape),
                gb[:, 0] if squeeze else _unbroadcast(gb, bv.shape))

    val = x[:, 0] if squeeze else x
    return lift(val, (l, b), vjp, "triangular_solve")


def log_diag_sum(a, weights=1.0) -> DiffTensor:
    """sum_i w_i log a_ii over the leading diagonal of a matrix (or of each
    matrix in a stack) with positive diagonal, w a scalar or one weight per
    diagonal entry: log-determinants of triangular factors and Bartlett
    Jacobian terms in one node."""
    a = as_tensor(a)
    d = np.diagonal(a.value, axis1=-2, axis2=-1)
    if np.any(d <= 0):
        raise ValueError("log domain violation: non-positive diagonal in op 'log_diag_sum'")
    w = np.broadcast_to(np.asarray(weights, dtype=np.float64), d.shape[-1:])
    i = np.arange(d.shape[-1])

    def vjp(g):
        out = np.zeros_like(a.value)
        out[..., i, i] = np.asarray(g)[..., None] * w / d
        return (out,)

    return lift(np.asarray(np.sum(w * np.log(d), axis=-1)), (a,), vjp, "log_diag_sum")


# -- backward ---------------------------------------------------------------

def backward_pass(loss: DiffTensor) -> dict:
    """Gradients of a scalar loss with respect to the named parameters.

    Returns a dict mapping the name of each named tensor the loss reaches to
    its gradient, an array of its own, in tape order. Each reached node's
    VJP runs once, and its tracked operands' cotangents are added in operand
    order. Cotangents pass between VJPs without copies, so a VJP must not
    write into the cotangent it is given; the walk drops each one once it
    has passed its node.
    """
    if loss.value.size != 1:
        raise ValueError("backward_pass requires a scalar loss")
    tape = loss._tape
    if tape is None:
        return {}
    if tape._nodes is None:
        raise ValueError("backward_pass on a closed tape: call it inside the tape's with block")
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.value)}
    named = []
    for node in reversed(tape._nodes):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.name is not None:
            named.append((node.name, np.array(g)))
        if node._vjp is None:
            continue
        cts = node._vjp(g)
        for parent, k in node._parents:
            pg = np.asarray(cts[k], dtype=np.float64)
            prev = grads.get(id(parent))
            grads[id(parent)] = pg if prev is None else prev + pg
        del cts     # an untracked operand's cotangent is dropped before the next VJP runs
    return dict(reversed(named))


def finite_diff_check(fn, params):
    """Compare reverse-mode gradients of fn against central finite differences.

    fn: callable taking a list (or dict) of DiffTensors, returning a scalar
        DiffTensor; must be deterministic.
    params: list or dict of numpy arrays (initial parameter values).

    Returns a report dict with per-parameter max relative errors and a pass flag.
    """
    h = tol = 1e-5      # the difference step, and the largest relative error that passes
    keys = None
    if isinstance(params, dict):
        keys = list(params.keys())
        raw_fn = fn
        fn = lambda ps: raw_fn(dict(zip(keys, ps)))
        params = [params[k] for k in keys]
    params = [np.asarray(p, dtype=np.float64) for p in params]
    with Tape() as tape:
        wrapped = [tape.param(p.copy(), f"p{i}") for i, p in enumerate(params)]
        loss = fn(wrapped)
        grads = backward_pass(loss)
    analytic = [grads.get(f"p{i}", np.zeros_like(p)) for i, p in enumerate(params)]

    def eval_at(vals):
        out = fn([as_tensor(v) for v in vals])
        return float(out.value)

    errors = []
    for i, p in enumerate(params):
        num = np.zeros_like(p)
        flat = p.reshape(-1)
        for k in range(flat.size):
            bump = np.zeros_like(flat)
            bump[k] = h
            vp = [q.copy() for q in params]
            vm = [q.copy() for q in params]
            vp[i] = (flat + bump).reshape(p.shape)
            vm[i] = (flat - bump).reshape(p.shape)
            num.reshape(-1)[k] = (eval_at(vp) - eval_at(vm)) / (2 * h)
        denom = np.maximum(np.abs(num), np.maximum(np.abs(analytic[i]), 1.0))
        errors.append(float(np.max(np.abs(num - analytic[i]) / denom)) if p.size else 0.0)
    return {
        "max_rel_errors": errors,
        "max_rel_error": max(errors) if errors else 0.0,
        "passed": all(e <= tol for e in errors),
        "tol": tol,
    }
