"""Tape-based reverse-mode differentiation over 2-D float64 arrays.

Every value on the tape is a 2-D array (scalars are 1x1).  Nodes are
recorded in creation order, which is a valid topological order, so the
backward pass is a single reverse sweep.  Each primitive stores its local
vector-Jacobian products as closures.

Each transformer sublayer is one node: `feed_forward_rows` is
relu(x w1 + b1) w2 + b2, `layer_norm_rows` is the residual step LN(x + r)
and `attention_rows` is scaled dot-product attention for every head and
sequence.  Such a node's VJPs share one inner adjoint (hidden, normalised
or score), computed once per backward.  The training loss and grade penalty
are one node each too (`training.sequence_loss_node`, `regularizer_node`).

Every keepdims sum (softmax normaliser and adjoint, the bias and scale
VJPs) is a BLAS product with ones, `tensor.row_sums` or `tensor.col_sums`,
and every LayerNorm mean (moments and adjoint) a product with a column of
1/d, `tensor.mean_column`.  Attention scores are laid out key-major,
(B, heads, n_k, n_q), so the softmax max reduces over a non-last axis; the
softmax normalises the score buffer in place, and the output and VJPs read
it through transposed views.

A node records only when one of its parents records.  Parameter leaves
are live; constants (`Tape.constant`, `wrap`) are bare nodes no tape
keeps.  Each primitive computes its value first and returns a bare node,
with no VJP closures, when no parent is live; otherwise `record` puts it
on the active tape with its live parents and their VJPs only.  A dead node
has no parameter ancestor, so inference records nothing, and backward calls no
VJP into constants, fixed grade weights or targets; the gradients equal
those of full recording bit for bit.

Inference runs mostly one-row calls (a decode step), where fixed per-call
work weighs as much as the arithmetic, so the values-only path does no
more than the arithmetic needs: a 2-D float64 array becomes a constant
with no copy or conversion, `wrap` is a type-identity test, shape checks
read `value.shape` once, views and VJP helpers are built only when a
parent is live, and LayerNorm applies gamma and beta in place.  The
decoder's self-attention K/V rows grow in a `RowBuffer`: each step
appends its row and gets a view of the rows so far, with no prefix copy;
the append node's VJPs are the row slices of a vertical stack.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from . import tensor
from .errors import DimensionMismatch, NonFinite, NotScalarRoot, ZeroAfterGrading

_F64 = np.dtype(np.float64)


class Node:
    """One value; a live node also holds the VJPs to its live parents."""

    __slots__ = ("value", "parents", "vjps", "grad", "live")

    def __init__(self, value: np.ndarray, parents=(), vjps=(), live: bool = False):
        self.value = value
        self.parents = parents
        self.vjps = vjps
        self.grad = None
        self.live = live

    @property
    def shape(self):
        return self.value.shape


class Tape:
    """Recording context: ordered node list plus named parameter leaves.

    The list holds the parameter leaves and every node recorded from a
    live parent, nothing else (see the module docstring); `record` is the
    one place nodes are appended.  Single-threaded during recording and
    backward; independent tapes may run concurrently.
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self.params: dict[str, Node] = {}

    def record(self, node: Node) -> Node:
        self.nodes.append(node)
        return node

    def param(self, name: str, value) -> Node:
        if name in self.params:
            raise ValueError(f"duplicate parameter name {name!r}")
        node = self.record(Node(_as2d(value), (), (), True))
        self.params[name] = node
        return node

    @staticmethod
    def constant(value) -> Node:
        """A constant node, which no tape keeps.  A 2-D float64 array
        becomes its value as is, neither copied nor converted."""
        if type(value) is np.ndarray and value.dtype is _F64 and value.ndim == 2:
            return Node(value)
        return Node(_as2d(value))

    def backward(self, root: Node, out: dict[str, np.ndarray] | None = None
                 ) -> dict[str, np.ndarray]:
        """Gradients of a scalar root w.r.t. all registered leaves.

        Unused leaves get zero gradients, so every registered leaf has a
        populated adjoint afterwards.  When `out` is given it maps every
        leaf name to a zero-filled array of the leaf's shape, such as a
        view of one flat buffer; each leaf's gradient is summed into its
        array, and `out` is returned.
        """
        if root.value.shape != (1, 1):
            raise NotScalarRoot(f"root has shape {root.value.shape}")
        for node in self.nodes:
            node.grad = None
        if out is not None:
            for name, leaf in self.params.items():
                leaf.grad = out[name]
        root.grad = np.ones((1, 1))
        for node in reversed(self.nodes):
            g = node.grad
            if g is None:
                continue
            for parent, vjp in zip(node.parents, node.vjps):
                contrib = vjp(g)
                if parent.grad is None:
                    # g or a view of it may also reach other parents, and a
                    # later contribution is added in place: copy it then.
                    shared = contrib is g or np.may_share_memory(contrib, g)
                    parent.grad = contrib.copy() if shared else contrib
                else:
                    parent.grad += contrib
        if out is not None:
            return out
        return {name: leaf.grad if leaf.grad is not None else np.zeros_like(leaf.value)
                for name, leaf in self.params.items()}


_ACTIVE: list[Tape] = []


def _tape() -> Tape:
    if not _ACTIVE:
        raise RuntimeError("no active tape; wrap computation in `with recording(tape):`")
    return _ACTIVE[-1]


class recording:
    """Context manager activating a tape for the ops below."""

    def __init__(self, tape: Tape):
        self.tape = tape

    def __enter__(self) -> Tape:
        _ACTIVE.append(self.tape)
        return self.tape

    def __exit__(self, *exc):
        _ACTIVE.pop()
        return False


def _as2d(value) -> np.ndarray:
    a = np.asarray(value, dtype=np.float64)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(1, -1)
    elif a.ndim != 2:
        raise DimensionMismatch(f"tape values must be scalar/1-D/2-D, got {a.ndim}-D")
    return a


def wrap(x) -> Node:
    """Lift a plain array to a constant node (or pass a Node through)."""
    return x if type(x) is Node else Tape.constant(x)


def record(value, parents: tuple, vjps: tuple) -> Node:
    """Record value on the active tape with its live parents and their VJPs;
    callers return a bare Node(value), before any VJP, when no parent is live."""
    for p in parents:
        if not p.live:
            parents, vjps = zip(*[(p, f) for p, f in zip(parents, vjps) if p.live])
            break
    return _tape().record(Node(value, parents, vjps, True))


# ---------------------------------------------------------------------------
# primitives


def add(a, b) -> Node:
    if type(a) is not Node or type(b) is not Node:
        a, b = wrap(a), wrap(b)
    av, bv = a.value, b.value
    if av.shape != bv.shape:
        raise DimensionMismatch(f"add: {av.shape} vs {bv.shape}")
    out = av + bv
    if not (a.live or b.live):
        return Node(out)
    return record(out, (a, b), (lambda g: g, lambda g: g))


def mul(a, b) -> Node:
    """Elementwise product of same-shape nodes."""
    a, b = wrap(a), wrap(b)
    av, bv = a.value, b.value
    if av.shape != bv.shape:
        raise DimensionMismatch(f"mul: {av.shape} vs {bv.shape}")
    if not (a.live or b.live):
        return Node(av * bv)
    return record(av * bv, (a, b), (lambda g: g * bv, lambda g: g * av))


def scale(a, c: float) -> Node:
    a = wrap(a)
    c = float(c)
    if not a.live:
        return Node(a.value * c)
    return record(a.value * c, (a,), (lambda g: g * c,))


def add_rowvec(x, b) -> Node:
    """x + b with b a 1xd row broadcast over the rows of x."""
    x, b = wrap(x), wrap(b)
    xv, bv = x.value, b.value
    if bv.shape != (1, xv.shape[1]):
        raise DimensionMismatch(f"add_rowvec: {xv.shape} vs {bv.shape}")
    out = xv + bv
    if not (x.live or b.live):
        return Node(out)
    return record(out, (x, b), (lambda g: g, tensor.col_sums))


def scale_cols(x, w) -> Node:
    """Scale column j of x by w[0, j]; w may itself be a node (learnable)."""
    x, w = wrap(x), wrap(w)
    xv, wv = x.value, w.value
    if wv.shape != (1, xv.shape[1]):
        raise DimensionMismatch(f"scale_cols: {xv.shape} vs {wv.shape}")
    if not (x.live or w.live):
        return Node(xv * wv)
    return record(
        xv * wv,
        (x, w),
        (lambda g: g * wv, lambda g: tensor.col_sums(g * xv)),
    )


def matmul(a, b) -> Node:
    if type(a) is not Node or type(b) is not Node:
        a, b = wrap(a), wrap(b)
    av, bv = a.value, b.value
    if av.shape[1] != bv.shape[0]:
        raise DimensionMismatch(f"matmul: {av.shape} x {bv.shape}")
    if not (a.live or b.live):
        return Node(av @ bv)
    return record(av @ bv, (a, b), (lambda g: g @ bv.T, lambda g: av.T @ g))


def transpose(a) -> Node:
    a = wrap(a)
    if not a.live:
        return Node(a.value.T.copy())
    return record(a.value.T.copy(), (a,), (lambda g: g.T,))


def exp(a) -> Node:
    a = wrap(a)
    ev = np.exp(a.value)
    if not a.live:
        return Node(ev)
    return record(ev, (a,), (lambda g: g * ev,))


def affine(x, a: float, b: float) -> Node:
    """a + b*x elementwise, for scalars a and b, computed as x*b + a."""
    x = wrap(x)
    a, b = float(a), float(b)
    out = x.value * b + a
    if not x.live:
        return Node(out)
    return record(out, (x,), (lambda g: g * b,))


def sum_all(a) -> Node:
    a = wrap(a)
    out = np.array([[a.value.sum()]])
    if not a.live:
        return Node(out)
    shape = a.value.shape
    return record(out, (a,), (lambda g: np.full(shape, g[0, 0]),))


def attention_rows(q, k, v, n_q: int, n_k: int, mask: np.ndarray | None = None,
                   collect: list | None = None, heads: int = 1) -> Node:
    """softmax(q k^T / sqrt(d_k) [+ mask]) v per head, within each stacked sequence.

    q holds B sequences of n_q rows, k and v the same B sequences of n_k
    rows; head i owns the i-th of `heads` equal column blocks of q, k and
    v, and its output fills the i-th column block of the result.  Scores
    are formed per sequence and head with batched matmul over
    (B, heads, n, d_k) views, so the score work is B heads n_q n_k, not
    (B n_q)(B n_k).  They are key-major, k q^T of shape (B, heads, n_k,
    n_q), and the softmax normalises along axis -2: its max then reduces
    over a non-last axis, which numpy does several times faster.  The
    output, the VJPs and `collect` read probabilities and score adjoint
    through transposed views, with no copy.  mask is an additive (n_q, n_k)
    array shared by all sequences and heads.  One node; its VJPs share the
    score adjoint, computed once per backward.  When `collect` is given,
    one (B, n_q, n_k) array of probabilities per head is appended (a view).
    """
    if type(q) is not Node or type(k) is not Node or type(v) is not Node:
        q, k, v = wrap(q), wrap(k), wrap(v)
    qv, kv, vv = q.value, k.value, v.value
    rows, width = qv.shape
    if heads < 1 or width % heads or vv.shape[1] % heads:
        raise DimensionMismatch(
            f"attention_rows: widths {width}, {vv.shape[1]} not in {heads} heads")
    d_k, d_v = width // heads, vv.shape[1] // heads
    if n_q < 1 or n_k < 1 or rows % n_q:
        raise DimensionMismatch(f"attention_rows: {rows} rows not in blocks of {n_q}")
    b = rows // n_q
    if kv.shape != (b * n_k, width) or vv.shape[0] != b * n_k:
        raise DimensionMismatch(
            f"attention_rows: q {qv.shape} ({b} x {n_q}) vs k {kv.shape}, v {vv.shape}")
    if mask is not None and np.shape(mask) != (n_q, n_k):
        raise DimensionMismatch(f"attention_rows: mask {np.shape(mask)} vs ({n_q}, {n_k})")

    c = 1.0 / math.sqrt(d_k)
    # (B n, heads w) rows viewed as (B, heads, n, w); q as (B, heads, d_k, n_q)
    qt = qv.reshape(b, n_q, heads, d_k).transpose(0, 2, 3, 1)
    kb = kv.reshape(b, n_k, heads, d_k).transpose(0, 2, 1, 3)
    vb = vv.reshape(b, n_k, heads, d_v).transpose(0, 2, 1, 3)
    scores = kb @ qt  # key-major: (B, heads, n_k, n_q)
    scores *= c
    if mask is not None:
        scores += mask.T
    p = tensor.softmax_rows(scores, axis=-2, out=scores)
    pt = p.transpose(0, 1, 3, 2)
    if collect is not None:
        collect.extend(pt[:, i] for i in range(heads))
    # (B, heads, n_q, d_v) -> (B n_q, heads d_v) rows
    out = (pt @ vb).transpose(0, 2, 1, 3).reshape(rows, -1)
    if not (q.live or k.live or v.live):
        return Node(out)

    def merge(x, n):  # (B, heads, n, w) -> (B n, heads w) rows
        return x.transpose(0, 2, 1, 3).reshape(b * n, -1)

    memo: dict = {}

    def adjoints(g):  # g as (B, heads, d_v, n_q), and the key-major score adjoint
        if memo.get("g") is not g:
            gt = g.reshape(b, n_q, heads, d_v).transpose(0, 2, 3, 1)
            ds = vb @ gt  # dp, key-major, turned into ds in place
            ds -= tensor.col_sums(ds * p)
            ds *= p
            ds *= c
            memo.update(g=g, gt=gt, ds=ds)
        return memo["gt"], memo["ds"]

    return record(
        out,
        (q, k, v),
        (
            lambda g: merge(adjoints(g)[1].transpose(0, 1, 3, 2) @ kb, n_q),
            lambda g: merge(adjoints(g)[1] @ qt.transpose(0, 1, 3, 2), n_k),
            lambda g: merge(p @ adjoints(g)[0].transpose(0, 1, 3, 2), n_k),
        ),
    )


def normalize_rows(x) -> Node:
    """Scale each row to unit Euclidean norm; zero rows are an error."""
    x = wrap(x)
    norms = np.linalg.norm(x.value, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ZeroAfterGrading("cannot normalize a zero row")
    y = x.value / norms
    if not x.live:
        return Node(y)

    def vjp(g):
        return (g - y * tensor.row_sums(g * y)) / norms

    return record(y, (x,), (vjp,))


def layer_norm_rows(x, r, gamma, beta, eps: float) -> Node:
    """Row-wise (z - mean)/sqrt(var + eps) * gamma + beta of z = x + r.

    One node for the post-norm residual step LN(x + r).  x and r get the
    same adjoint, computed once per backward; r's is a copy, so the two
    never share memory.  With no live parent, gamma and beta are applied in
    place to the normalised buffer.
    """
    if not (type(x) is type(r) is type(gamma) is type(beta) is Node):
        x, r, gamma, beta = wrap(x), wrap(r), wrap(gamma), wrap(beta)
    xv, gv, bv = x.value, gamma.value, beta.value
    d = xv.shape[1]
    if r.value.shape != xv.shape:
        raise DimensionMismatch(f"layer_norm_rows: x {xv.shape} vs r {r.value.shape}")
    if gv.shape != (1, d) or bv.shape != (1, d):
        raise DimensionMismatch("layer_norm_rows: gamma/beta must be 1xd")
    # xhat is z = x + r, centred and scaled in place; the row means are
    # products with a column of 1/d (ndarray.dot: the same BLAS call as @,
    # with less fixed cost), and 1/sqrt(var + eps) is one power.
    col = tensor.mean_column(d)
    xhat = xv + r.value
    xhat -= xhat.dot(col)
    inv = np.power((xhat * xhat).dot(col) + eps, -0.5)
    xhat *= inv
    if not (x.live or r.live or gamma.live or beta.live):
        xhat *= gv
        xhat += bv
        return Node(xhat)
    out = xhat * gv
    out += bv
    memo: dict = {}

    def vjp_z(g):
        if memo.get("g") is not g:
            gh = g * gv
            dz = gh - gh.dot(col)
            gh *= xhat
            dz -= xhat * gh.dot(col)
            dz *= inv
            memo.update(g=g, dz=dz)
        return memo["dz"]

    return record(
        out,
        (x, r, gamma, beta),
        (
            vjp_z,
            lambda g: vjp_z(g).copy(),
            lambda g: tensor.col_sums(g * xhat),
            tensor.col_sums,
        ),
    )


def feed_forward_rows(x, w1, b1, w2, b2) -> Node:
    """relu(x w1 + b1) w2 + b2 as one node.

    Bias and ReLU run in place in the hidden buffer; backward keeps x and
    the ReLU output, whose positive entries are the ReLU's mask.  The five
    VJPs share the hidden adjoint, computed once per backward.  A NaN
    pre-activation propagates to the output.
    """
    if not (type(x) is type(w1) is type(b1) is type(w2) is type(b2) is Node):
        x, w1, b1, w2, b2 = wrap(x), wrap(w1), wrap(b1), wrap(w2), wrap(b2)
    xv, w1v, b1v, w2v, b2v = x.value, w1.value, b1.value, w2.value, b2.value
    d, f = w1v.shape
    if xv.shape[1] != d or b1v.shape != (1, f) or w2v.shape[0] != f \
            or b2v.shape != (1, w2v.shape[1]):
        raise DimensionMismatch(
            f"feed_forward_rows: x {xv.shape}, w1 {w1v.shape}, b1 {b1v.shape}, "
            f"w2 {w2v.shape}, b2 {b2v.shape}")
    hidden = xv @ w1v
    hidden += b1v
    np.maximum(hidden, 0.0, out=hidden)
    out = hidden @ w2v
    out += b2v
    if not (x.live or w1.live or b1.live or w2.live or b2.live):
        return Node(out)
    memo: dict = {}

    def hidden_adjoint(g):
        if memo.get("g") is not g:
            gh = g @ w2v.T
            gh *= hidden > 0
            memo.update(g=g, gh=gh)
        return memo["gh"]

    return record(
        out,
        (x, w1, b1, w2, b2),
        (
            lambda g: hidden_adjoint(g) @ w1v.T,
            lambda g: xv.T @ hidden_adjoint(g),
            lambda g: tensor.col_sums(hidden_adjoint(g)),
            lambda g: hidden.T @ g,
            tensor.col_sums,
        ),
    )


def embedding_rows(table, ids: Sequence[int]) -> Node:
    """Gather rows of an embedding table; backward sums the adjoint rows of
    each id as one product with a one-hot (table rows, ids) matrix."""
    table = wrap(table)
    idx = np.asarray(ids, dtype=np.int64)
    if not table.live:
        return Node(table.value[idx])
    vocab = table.value.shape[0]

    def vjp(g):
        onehot = np.zeros((vocab, idx.size))
        onehot[idx, np.arange(idx.size)] = 1.0
        return onehot @ g

    return record(table.value[idx], (table,), (vjp,))


def _stack(out: np.ndarray, parts: Sequence[Node]) -> Node:
    """out, the parts' values stacked row-wise, as a node; each VJP is its
    part's row slice."""
    for p in parts:
        if p.live:
            break
    else:
        return Node(out)
    vjps, start = [], 0
    for p in parts:
        stop = start + p.value.shape[0]
        vjps.append(lambda g, start=start, stop=stop: g[start:stop])
        start = stop
    return record(out, tuple(parts), tuple(vjps))


class RowBuffer:
    """Rows appended call by call, as the self-attention K or V of one
    decoded sequence.

    `append(new)` writes new's rows after the earlier ones into one array
    and returns a node whose value is a view of every row so far.  Its
    parents are the node the previous append returned and new, with the
    row slices as VJPs, so the node equals the vertical stack of all
    appended rows, in value and in gradient.  Rows once written are never
    rewritten: every node returned keeps its value.  When full, the array
    is copied into one of twice the size.  A buffer serves one sequence of
    appends; it cannot branch into two continuations.
    """

    FIRST_ROWS = 8  # rows of the first array

    __slots__ = ("data", "node")

    def __init__(self):
        self.data: np.ndarray | None = None
        self.node: Node | None = None

    def append(self, new) -> Node:
        new = wrap(new)
        rows, prev, data = new.value, self.node, self.data
        n = 0 if prev is None else prev.value.shape[0]
        m = n + rows.shape[0]
        if data is None:
            data = self.data = np.empty((max(m, self.FIRST_ROWS), rows.shape[1]))
        elif rows.shape[1] != data.shape[1]:
            raise DimensionMismatch(f"append: rows {rows.shape} vs width {data.shape[1]}")
        elif m > data.shape[0]:
            grown = np.empty((max(m, 2 * data.shape[0]), data.shape[1]))
            grown[:n] = data[:n]
            data = self.data = grown
        data[n:m] = rows
        self.node = _stack(data[:m], (new,) if prev is None else (prev, new))
        return self.node


# ---------------------------------------------------------------------------
# gradient checking


GRAD_CHECK_FLOOR = 1e-3  # error scale floor, as a share of the parameter's peak |gradient|


def grad_check(
    f: Callable[[dict[str, Node]], Node],
    point: dict[str, np.ndarray],
    h: float = 1e-5,
    sample: int | None = None,
    seed: int = 0,
) -> float:
    """Max relative error between tape gradients and central differences.

    `f` builds a scalar node from named parameter nodes.  The caller must
    keep the point away from activation kinks.  When `sample` is given,
    only that many randomly chosen coordinates per parameter are probed
    (all coordinates of parameters with <= sample entries are checked).

    Each error is |analytic - central| / (max(|central|, GRAD_CHECK_FLOOR
    * peak) + 1e-8), with peak the largest |central| probed in that
    parameter: an entry near zero (softmax rows sum to zero, for one) is
    measured against the parameter's scale, not against the O(h^2) floor
    of the central difference.  A NaN error counts as infinite.
    """
    point = {k: _as2d(v) for k, v in point.items()}
    tape = Tape()
    with recording(tape):
        nodes = {k: tape.param(k, v) for k, v in point.items()}
        root = f(nodes)
    grads = tape.backward(root)

    def eval_at(p):  # constants only: nothing records
        val = f({k: Node(v) for k, v in p.items()}).value[0, 0]
        if not np.isfinite(val):
            raise NonFinite("function value is not finite at probe point")
        return val

    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, arr in point.items():
        flat_ids = np.arange(arr.size)
        if sample is not None and arr.size > sample:
            flat_ids = rng.choice(arr.size, size=sample, replace=False)
        central = np.empty(flat_ids.size)
        analytic = np.empty(flat_ids.size)
        for n, fid in enumerate(flat_ids):
            i, j = divmod(int(fid), arr.shape[1])
            probe = {k: v.copy() for k, v in point.items()}
            probe[name][i, j] = arr[i, j] + h
            f_plus = eval_at(probe)
            probe[name][i, j] = arr[i, j] - h
            f_minus = eval_at(probe)
            central[n] = (f_plus - f_minus) / (2.0 * h)
            analytic[n] = grads[name][i, j]
        if flat_ids.size:
            scale = np.maximum(np.abs(central), GRAD_CHECK_FLOOR * np.abs(central).max()) + 1e-8
            err = np.abs(analytic - central) / scale
            worst = max(worst, np.inf if np.isnan(err).any() else float(err.max()))
    return worst
