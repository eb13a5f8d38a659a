import ast
import inspect
import pathlib
import re

import numpy as np
import pytest

from sgloc import gradcheck
from sgloc import tensor as T
from sgloc.tensor import Tensor, finite_difference_check


def _layer_norm_without_mean_term(x: Tensor) -> Tensor:
    """layer_norm_rows with a backward that drops the g_mean term."""
    xc = x.data - x.data.mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=1, keepdims=True) + T.LAYER_NORM_EPS)
    out = xc * inv

    def bw(g):
        proj = (g * out).mean(axis=1, keepdims=True)
        return ((g - out * proj) * inv,)

    return T._make(out, (x,), bw)


def _layer_norm_error(op, seed):
    x = Tensor(np.random.default_rng(seed).standard_normal((3, 6)), requires_grad=True)
    loss = gradcheck._projected(op)
    return finite_difference_check(lambda: loss(x), [x], eps=gradcheck.EPS)


# 7 is the input seed of `sgloc gradcheck`; there sum(y**2) scored both
# backwards alike, at an error below TOLERANCE.
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 7])
def test_projection_flags_layer_norm_without_mean_term(f64, seed):
    assert _layer_norm_error(_layer_norm_without_mean_term, seed) > gradcheck.TOLERANCE
    assert _layer_norm_error(T.layer_norm_rows, seed) < gradcheck.TOLERANCE


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("case", gradcheck._OP_CASES, ids=[c[0] for c in gradcheck._OP_CASES])
def test_op_case_passes_on_any_inputs(f64, case, seed):
    err = gradcheck.check_op_case(*case, np.random.default_rng(seed))
    assert err < gradcheck.TOLERANCE, f"{case[0]} at input seed {seed}: rel error {err:.3e}"


def _taped_ops() -> set:
    """The public functions of `tensor` that record a tape node themselves."""
    return {name for name, fn in vars(T).items()
            if inspect.isfunction(fn) and fn.__module__ == T.__name__ and not name.startswith("_")
            and re.search(r"\b_make\(", inspect.getsource(fn))}


def test_every_taped_op_has_a_gradcheck_case():
    ops = _taped_ops()
    assert {"matmul", "layer_norm_rows"} <= ops
    assert sorted(ops - {name for name, _, _ in gradcheck._OP_CASES}) == []


def test_every_gradcheck_case_names_a_taped_op():
    # a case is named after its op, or after its op and a variant ("block_groups");
    # "block" is a call of `attention.Block`, which records one node of its own
    ops = _taped_ops() | {"block"}
    stray = [name for name, _, _ in gradcheck._OP_CASES
             if not any(name == op or name.startswith(op + "_") for op in ops)]
    assert stray == []


def _names_read(tree: ast.Module) -> set:
    """The names a module reads, bare or as an attribute of its alias of
    `tensor`, outside an assignment to `_OP_CASES`; imports are not reads."""
    aliases = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for a in node.names if a.name == "tensor"}
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "_OP_CASES" for t in node.targets):
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in aliases:
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_taped_op_is_read_outside_the_gradcheck_table():
    # an op that only its own gradcheck row calls is dead code
    package = pathlib.Path(T.__file__).parent
    read = set().union(*(_names_read(ast.parse(path.read_text(), str(path)))
                         for path in package.glob("*.py") if path.name != "tensor.py"))
    assert sorted(_taped_ops() - read) == []
