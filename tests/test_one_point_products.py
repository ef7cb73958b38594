"""One-point products on the per-stage path: ndarray.dot in place of @.

The premise: on one point (one matrix and one vector, two vectors, or two
matrices) ``.dot`` gives the bits of the matmul it replaced, for n = 1..8 and
each operand layout that the path passes it: contiguous, transposed, a
row-sliced block of a larger array (``MetricJet.block``, which only raises an
index, a matrix times a vector) and a strided vector.  Each spelling is
compared with its ``@`` byte for byte, except that a sum of one term may
differ in the sign of an exact zero (``.dot`` returns the product itself,
``@`` adds it to +0); ``np.array_equal`` holds there too.  Gamma v keeps the
matmul (``flows.gamma_vv``); its check is that ``v @ G`` gives the bits of
the transposed-view product it replaced.

Three layouts are left out because no per-stage operand has them: a block
view on the right of a vector, a transposed block view, and a stack of
matrices with one vector.  On those ``.dot`` and ``@`` take different BLAS
routines and may differ by roundoff.

The guard below it scans the per-stage functions for the ``@`` operator.
"""
import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylflow import flows, metrics
from weylflow.fields import FourierField
from weylflow.metrics import _conformal_basis, matvec, vecdot, vecmat

SRC = Path(__file__).resolve().parent.parent / "src" / "weylflow"

PREMISE = settings(max_examples=150, deadline=None, derandomize=True)
LAYOUTS = ("contiguous", "transposed", "block")
dims = st.integers(1, 8)
seeds = st.integers(0, 2**32 - 1)


def same_bits(a, b, terms=2):
    """a and b hold the same bits; with terms = 1 (a one-term sum) a zero's sign may differ."""
    a, b = np.asarray(a), np.asarray(b)
    if terms == 1:
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _values(rng, shape):
    """Normal entries at a random scale, with a few exact zeros of either sign."""
    x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3)
    x[rng.random(shape) < 0.1] = 0.0
    x[rng.random(shape) < 0.05] = -0.0
    return x


def matrix(rng, r, c, layout):
    """An r x c matrix laid out as a contiguous array, the transpose of a
    contiguous (c, r) array, or a block of a larger array (rows strided)."""
    if layout == "transposed":
        return _values(rng, (c, r)).T
    if layout == "block":
        return _values(rng, (r + 3, c + 2))[2:r + 2, 1:c + 1]
    return _values(rng, (r, c))


def vector(rng, n, layout):
    """A contiguous vector, or one read with stride 2 (the layouts a vector has)."""
    return _values(rng, 2 * n)[::2] if layout != "contiguous" else _values(rng, n)


@PREMISE
@given(n=dims, seed=seeds, lx=st.sampled_from(LAYOUTS), ly=st.sampled_from(LAYOUTS))
def test_vector_dot_vector(n, seed, lx, ly):
    rng = np.random.default_rng(seed)
    x, y = vector(rng, n, lx), vector(rng, n, ly)
    assert same_bits(x.dot(y), x @ y, n)
    assert same_bits(vecdot(x, y), x @ y, n)


@PREMISE
@given(n=dims, m=st.integers(0, 8), seed=seeds, la=st.sampled_from(LAYOUTS),
       lx=st.sampled_from(LAYOUTS))
def test_matrix_dot_vector(n, m, seed, la, lx):
    # m = 0 is the phase matrix of a FourierField with no terms
    rng = np.random.default_rng(seed)
    A, x = matrix(rng, m, n, la), vector(rng, n, lx)
    assert same_bits(A.dot(x), A @ x, n)
    assert same_bits(matvec(A, x), A @ x, n)


@PREMISE
@given(n=dims, m=st.integers(0, 8), seed=seeds, la=st.sampled_from(LAYOUTS[:2]),
       lw=st.sampled_from(LAYOUTS))
def test_vector_dot_matrix(n, m, seed, la, lw):
    rng = np.random.default_rng(seed)
    A, w = matrix(rng, m, n, la), vector(rng, m, lw)
    assert same_bits(w.dot(A), w @ A, m)
    assert same_bits(vecmat(w, A), w @ A, m)


@PREMISE
@given(n=dims, seed=seeds, lf=st.sampled_from(LAYOUTS), lg=st.sampled_from(LAYOUTS))
def test_frame_products(n, seed, lf, lg):
    # the frame transport's rows <e_a, .>, its Gamma(v, e_a) and the Gram check
    rng = np.random.default_rng(seed)
    frame, g = matrix(rng, max(n - 1, 1), n, lf), matrix(rng, n, n, lg)
    v, gv = vector(rng, n, "contiguous"), _values(rng, (n, n))
    assert same_bits(frame.dot(g), frame @ g, n)
    assert same_bits(frame.dot(gv.T), frame @ gv.T, n)
    assert same_bits(frame.dot(g).dot(frame.T), frame @ g @ frame.T, n)
    assert same_bits(v.dot(g).dot(v), v @ g @ v, n)


@PREMISE
@given(n=dims, seed=seeds, lv=st.sampled_from(LAYOUTS))
def test_gamma_v_keeps_the_transposed_product_bits(n, seed, lv):
    rng = np.random.default_rng(seed)
    G, v = _values(rng, (n, n, n)), vector(rng, n, lv)
    gv, gvv = flows.gamma_vv(G, v)
    old = G.transpose(0, 2, 1) @ v
    assert same_bits(gv, old, n)
    assert same_bits(gvv, old @ v, n)


@PREMISE
@given(n=dims, seed=seeds, lh=st.sampled_from(LAYOUTS))
def test_conformal_christoffels(n, seed, lh):
    # rank 4 . vector: Gamma^k_ij of g = w I from h = d ln sqrt(w)
    rng = np.random.default_rng(seed)
    basis, h = _conformal_basis(n), vector(rng, n, lh)
    assert same_bits(basis.dot(h), basis @ h)
    jet = metrics._conformal_jet(1.5, h, np.eye(n))
    assert same_bits(jet.gamma, basis @ h)


@PREMISE
@given(n=dims, seed=seeds)
def test_fourier_field_with_no_terms(n, seed):
    f = FourierField(n)
    q = np.random.default_rng(seed).standard_normal(n)
    cos, sin = np.cos(f.freq @ q), np.sin(f.freq @ q)
    assert f.freq.shape == (0, n)
    assert same_bits(f.value(q), cos @ f.a + sin @ f.b)
    assert same_bits(f.grad(q), (-f.a * sin + f.b * cos) @ f.freq)
    value, grad = f.value_grad(q)
    assert same_bits(value, f.value(q)) and same_bits(grad, f.grad(q))


# ---------------------------------------------------------------------------
# The guard: no @ in a one-point per-stage function.
# ---------------------------------------------------------------------------

# (module, qualified name) of each one-point function on the per-stage path
PER_STAGE = [
    ("scenario", "WeylScenario.point"),
    ("flows", "isokinetic_accel"),
    ("flows", "g_norm"),
    ("flows", "isoenergetic_rhs"),
    ("flows", "weyl_geodesic_rhs"),
    ("tangent", "_Kernel.transport"),
    ("tangent", "complete_frame"),
    ("tangent", "_g_gram_schmidt"),
    ("metrics", "_conformal_jet"),
    ("metrics", "ConstantCurvatureChart._factor"),
]
# the field and family methods that evaluate one point, in every class that has them
PER_STAGE_METHODS = {"fields": ("value", "value_grad"), "metrics": ("jet",)}


def functions(tree):
    """Qualified name -> def node of each function and method at module level."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    found[f"{node.name}.{item.name}"] = item
    return found


def matmul_lines(node):
    """Lines of node that use the @ operator (a binary @ or an @=)."""
    return sorted(n.lineno for n in ast.walk(node)
                  if isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.MatMult))


def per_stage_matmuls(sources):
    """'module:name:line' of each @ in a per-stage function, given module -> source.
    A listed name that is missing is reported too, so a rename cannot hide one."""
    found = []
    defs = {mod: functions(ast.parse(src)) for mod, src in sources.items()}
    wanted = list(PER_STAGE)
    for mod, names in PER_STAGE_METHODS.items():
        wanted += [(mod, q) for q in defs.get(mod, {}) if q.rpartition(".")[2] in names]
    for mod, qual in wanted:
        node = defs.get(mod, {}).get(qual)
        if node is None:
            found.append(f"{mod}:{qual}:missing")
        found += [f"{mod}:{qual}:{line}" for line in matmul_lines(node)] if node else []
    return found


def _sources():
    return {mod: (SRC / f"{mod}.py").read_text()
            for mod in {m for m, _ in PER_STAGE} | set(PER_STAGE_METHODS)}


def test_per_stage_functions_use_no_matmul_operator():
    assert per_stage_matmuls(_sources()) == []


def test_the_guard_covers_the_field_and_family_methods():
    names = set(functions(ast.parse(_sources()["fields"])))
    assert {"FourierField.value", "GradientField.value", "ProductField.value"} <= names
    assert "ConformalTorus.jet" in functions(ast.parse(_sources()["metrics"]))


@pytest.mark.parametrize("mod, qual, snippet", [
    ("flows", "g_norm", "    return math.sqrt(v @ g @ v)\n"),
    ("tangent", "_Kernel.transport", "        de -= frame @ gv.T\n"),
    ("fields", "FourierField.value", "        return cos @ self.a\n"),
    ("metrics", "ConformalTorus.jet", "        x = q\n        x @= q\n"),
])
def test_the_guard_sees_an_at_put_back(mod, qual, snippet):
    sources = _sources()
    node = functions(ast.parse(sources[mod]))[qual]
    lines = sources[mod].splitlines(keepends=True)
    lines.insert(node.body[-1].lineno - 1, snippet)      # before the last statement
    sources[mod] = "".join(lines)
    assert any(f.startswith(f"{mod}:{qual}:") for f in per_stage_matmuls(sources))


def test_the_guard_reports_a_renamed_function():
    sources = _sources()
    sources["flows"] = sources["flows"].replace("def g_norm(", "def g_norm_renamed(")
    assert "flows:g_norm:missing" in per_stage_matmuls(sources)
