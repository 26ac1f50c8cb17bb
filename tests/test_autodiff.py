"""Engine tests: forward semantics, the three backward rules, the
finite-difference gradient property for every op, the sweep that
computes only the gradients its ``wrt`` tensors need, and repeated sweeps of
one graph."""

import ast
from pathlib import Path

import numpy as np
import pytest

from gaxkit import autodiff as ad
from gaxkit.autodiff import (RULE_DECONV, RULE_GUIDED, RULE_STANDARD,
                             ShapeError, Tensor)
from gaxkit.models import MiniConvNet
from gaxkit.training import _cross_entropy
from gradcheck import check_gradients

from helpers_grad import op_cases


class TestForward:
    def test_matmul_identity(self):
        # x @ w.T with an identity input gives w.T
        out = ad.matmul(Tensor(np.eye(2)), Tensor([[3.0, 4.0]]))
        np.testing.assert_array_equal(out.data, [[3.0], [4.0]])

    def test_relu_definition(self):
        out = ad.relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_conv2d_all_ones(self):
        # same padding: each output sums the window's in-bounds ones, plus
        # its channel's bias
        x = Tensor(np.ones((1, 1, 3, 3)))
        k = Tensor(np.ones((2, 1, 3, 3)))
        out = ad.conv2d(x, k, Tensor([0.0, 0.5]))
        sums = np.array([[4.0, 6.0, 4.0], [6.0, 9.0, 6.0], [4.0, 6.0, 4.0]])
        np.testing.assert_array_equal(out.data, [[sums, sums + 0.5]])

    def test_conv2d_matches_scipy(self):
        from scipy.signal import correlate2d
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.normal(size=(2, 3, 6, 6))
            k = rng.normal(size=(4, 3, 3, 3))
            b = rng.normal(size=4)
            out = ad.conv2d(Tensor(x), Tensor(k), Tensor(b)).data
            for n in range(2):
                for o in range(4):
                    ref = sum(correlate2d(x[n, c], k[o, c], mode="same")
                              for c in range(3)) + b[o]
                    np.testing.assert_allclose(out[n, o], ref, atol=1e-12)

    def test_max_pool_matches_loop(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 2, 6, 6))
        out = ad.max_pool2d(Tensor(x)).data
        for n in range(2):
            for c in range(2):
                for i in range(3):
                    for j in range(3):
                        block = x[n, c, 2 * i: 2 * i + 2, 2 * j: 2 * j + 2]
                        assert out[n, c, i, j] == block.max()

    def test_shape_error_names_op(self):
        with pytest.raises(ShapeError, match="matmul"):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))
        with pytest.raises(ShapeError, match="conv2d"):
            ad.conv2d(Tensor(np.ones((1, 2, 4, 4))),
                      Tensor(np.ones((1, 3, 3, 3))), Tensor(np.ones(1)))

    @pytest.mark.parametrize("kernel", [(1, 1, 2, 2), (1, 1, 4, 4),
                                        (1, 1, 3, 1), (1, 1, 1, 3)])
    def test_conv2d_rejects_an_even_or_non_square_kernel(self, kernel):
        with pytest.raises(ShapeError) as info:
            ad.conv2d(Tensor(np.ones((1, 1, 5, 5))), Tensor(np.ones(kernel)),
                      Tensor(np.ones(1)))
        assert str(info.value) == \
            f"conv2d: kernel {kernel} is not odd and square"

    @pytest.mark.parametrize("bias", [(2,), (), (1, 1)])
    def test_conv2d_rejects_a_bias_not_one_per_output_channel(self, bias):
        with pytest.raises(ShapeError) as info:
            ad.conv2d(Tensor(np.ones((1, 1, 5, 5))),
                      Tensor(np.ones((1, 1, 3, 3))), Tensor(np.ones(bias)))
        assert str(info.value) == \
            f"conv2d: bias {bias} for kernel (1, 1, 3, 3)"

    def test_bias_add_takes_no_4d_input(self):
        # a conv layer adds its bias in conv2d; bias_add is the fc head's
        with pytest.raises(ShapeError) as info:
            ad.bias_add(Tensor(np.ones((2, 3, 4, 4))), Tensor(np.ones(3)))
        assert str(info.value) == ("bias_add: expected an (N, C) input and a "
                                   "(C,) bias, got (2, 3, 4, 4) and (3,)")

    @pytest.mark.parametrize("shape", [(1, 1, 1, 4), (1, 1, 4, 1),
                                       (1, 1, 1, 1), (1, 1, 0, 0)])
    def test_max_pool_rejects_an_extent_below_2(self, shape):
        with pytest.raises(ShapeError) as info:
            ad.max_pool2d(Tensor(np.ones(shape)))
        assert str(info.value) == ("max_pool2d: expected a 4D input with H "
                                   f"and W of at least 2, got {shape}")

    def test_outputs_finite(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(2, 2, 4, 4)))
        k = Tensor(rng.normal(size=(2, 2, 3, 3)))
        b = Tensor(rng.normal(size=2))
        out = ad.flatten(ad.max_pool2d(ad.relu(ad.conv2d(x, k, b))))
        assert np.isfinite(out.data).all()


class TestBackwardRules:
    def test_standard_relu_negative_input(self):
        x = Tensor([-1.0])
        y = ad.relu(x)
        y.backward(np.array([1.0]), rule=RULE_STANDARD, wrt=[x])
        assert x.grad[0] == 0.0

    def test_deconv_passes_positive_upstream(self):
        # the deconv rule ignores the forward sign entirely
        x = Tensor([-1.0])
        y = ad.relu(x)
        y.backward(np.array([1.0]), rule=RULE_DECONV, wrt=[x])
        assert x.grad[0] == 1.0

    def test_guided_masks_negative_upstream(self):
        x = Tensor([2.0])
        y = ad.relu(x)
        y.backward(np.array([-1.0]), rule=RULE_GUIDED, wrt=[x])
        assert x.grad[0] == 0.0

    def test_deconv_blocks_negative_upstream(self):
        x = Tensor([2.0])
        y = ad.relu(x)
        y.backward(np.array([-1.0]), rule=RULE_DECONV, wrt=[x])
        assert x.grad[0] == 0.0

    def test_rules_degrade_to_standard_when_all_positive(self):
        # positive pre-activations + positive upstream: all rules agree
        rng = np.random.default_rng(7)
        x_val = rng.uniform(0.5, 2.0, size=(1, 6))
        w_val = rng.uniform(0.1, 1.0, size=(4, 6))
        grads = {}
        for rule in (RULE_STANDARD, RULE_DECONV, RULE_GUIDED):
            x = Tensor(x_val)
            out = ad.relu(ad.matmul(x, Tensor(w_val)))
            out.backward(np.ones((1, 4)), rule=rule, wrt=[x])
            grads[rule] = x.grad.copy()
        np.testing.assert_array_equal(grads[RULE_STANDARD], grads[RULE_DECONV])
        np.testing.assert_array_equal(grads[RULE_STANDARD], grads[RULE_GUIDED])

    def test_relu_keeps_only_its_parent(self):
        # the vjp reads the gate from its input's forward array, so the
        # node stores no mask
        x = Tensor([-1.0, 0.0, 2.0])
        held = [cell.cell_contents for cell in ad.relu(x)._vjp.__closure__]
        assert len(held) == 1 and held[0] is x

    def test_seed_shape_mismatch(self):
        x = Tensor([1.0, 2.0])
        with pytest.raises(ShapeError):
            ad.relu(x).backward(np.ones(3), wrt=[x])

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            x = Tensor([1.0])
            ad.relu(x).backward(np.ones(1), rule="nonsense", wrt=[x])

    def test_gradient_accumulates_over_reuse(self):
        x = Tensor([[3.0, 1.0]])
        y = ad.matmul(x, x)  # x . x -> grad 2x
        y.backward(np.ones((1, 1)), wrt=[x])
        np.testing.assert_array_equal(x.grad, [[6.0, 2.0]])

    def test_gradient_shapes_match_values(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(2, 3, 8, 8)))
        k = Tensor(rng.normal(size=(4, 3, 3, 3)))
        b = Tensor(rng.normal(size=4))
        out = ad.max_pool2d(ad.relu(ad.conv2d(x, k, b)))
        nodes = ad._topo(out)
        out.backward(np.ones(out.shape), wrt=nodes)
        for node in nodes:
            assert node.grad.shape == node.data.shape


class TestMLPChainRule:
    def test_two_layer_mlp_matches_hand_derivation(self):
        rng = np.random.default_rng(13)
        w1 = rng.normal(size=(3, 4))
        b1 = rng.normal(size=3)
        w2 = rng.normal(size=(2, 3))
        b2 = rng.normal(size=2)
        xv = rng.normal(size=4)
        seed = rng.normal(size=2)

        # one-row batch: x (1, 4) @ w1.T (4, 3), then a1 (1, 3) @ w2.T (3, 2)
        x = Tensor(xv[None])
        z1 = ad.bias_add(ad.matmul(x, Tensor(w1)), Tensor(b1))
        a1 = ad.relu(z1)
        out = ad.bias_add(ad.matmul(a1, Tensor(w2)), Tensor(b2))
        out.backward(seed[None], wrt=[x])

        # hand-derived chain rule product
        z1v = w1 @ xv + b1
        g = w1.T @ ((w2.T @ seed) * (z1v > 0))
        np.testing.assert_allclose(x.grad[0], g, rtol=1e-12, atol=1e-15)


def _uses(tree, module: str | None) -> set[str]:
    """Names ``tree`` reads from package module ``module``: imported from
    it, or read off it as an attribute (``ad.relu``).  With ``module`` None,
    the names ``tree`` imports from ``gaxkit`` or any of its modules."""
    used, aliases = set(), set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if module is None:
            if (node.module or "").split(".")[0] == "gaxkit":
                used.update(alias.name for alias in node.names)
        elif node.level == 1 and node.module == module:
            used.update(alias.name for alias in node.names)
        elif node.level == 1 and node.module is None:
            aliases.update(alias.asname or alias.name for alias in node.names
                           if alias.name == module)
    used.update(node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases)
    return used


# public and used by no module of the package: the reader of the heatmap
# files that ``attribute`` and ``gax`` write, for the user to read them back
READ_BY_USERS = {"formats.read_gaxh"}


def test_every_public_function_is_used_by_the_package():
    """The package keeps only what it uses: each public function and class of
    a ``gaxkit`` module is used by another module of the package (see
    ``_uses``), by its own module beyond its definition, or by a demo.  The
    re-exports of ``gaxkit/__init__.py`` do not count."""
    package = Path(ad.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"),
                                  filename=str(path))
             for path in sorted(package.glob("*.py"))
             if path.name != "__init__.py"}
    demo_uses = set()
    for path in sorted((package.parent.parent / "demos").glob("*.py")):
        demo_uses |= _uses(ast.parse(path.read_text(encoding="utf-8")), None)
    unused = []
    for module, tree in trees.items():
        used = demo_uses.union(*(_uses(other, module)
                                 for name, other in trees.items()
                                 if name != module))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or \
                    node.name.startswith("_") or node.name in used:
                continue
            own = {id(n) for n in ast.walk(node)}
            if not any(isinstance(n, ast.Name) and n.id == node.name
                       and id(n) not in own for n in ast.walk(tree)):
                unused.append(f"{module}.{node.name}")
    assert len(trees) > 1 and sorted(unused) == sorted(READ_BY_USERS)


@pytest.mark.parametrize("name,make", op_cases(), ids=[n for n, _ in op_cases()])
def test_gradients_match_finite_differences(name, make):
    """Every op: analytic vs central differences, 100 seeded trials."""
    rng = np.random.default_rng(20250001)
    worst = 0.0
    for _ in range(100):
        arrays, build = make(rng)
        errs = check_gradients(build, arrays)
        worst = max(worst, max(errs))
    assert worst < 1e-6, f"{name}: max relative error {worst:.3e}"


# ---------------------------------------------------------------------------
# the pruned sweep: ``wrt`` changes which nodes get a gradient, never a byte

@pytest.fixture(scope="module")
def net():
    model = MiniConvNet(num_classes=3, seed=21)
    rng = np.random.default_rng(22)
    for name in ("conv1.b", "conv2.b", "fc.b"):
        model.params[name] = rng.normal(0.0, 0.1, model.params[name].shape)
    return model


def _batch(n):
    return np.random.default_rng(n).uniform(size=(n, 3, 32, 32))


def _one_hot(n):
    seed = np.zeros((n, 3))
    seed[:, 1] = 1.0
    return seed


def _assert_same_bytes(sweep):
    """``sweep(full)`` returns the arrays a caller reads after a sweep over
    its own ``wrt`` (False) or over every node of the graph (True)."""
    pruned, full = sweep(False), sweep(True)
    assert len(pruned) == len(full)
    for a, b in zip(pruned, full):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [1, 32])
@pytest.mark.parametrize("rule", ad.BACKWARD_RULES)
def test_input_sweep_matches_full_sweep(net, n, rule):
    x = _batch(n)

    def sweep(full):
        fp = net.forward_graph(x)
        leaf = fp.input
        fp.scores.backward(_one_hot(n), rule,
                           wrt=ad._topo(fp.scores) if full else [leaf])
        if not full:
            assert all(p.grad is None for p in fp.params.values())
        return [leaf.grad]

    _assert_same_bytes(sweep)


@pytest.mark.parametrize("n", [1, 32])
def test_deeplift_sweep_matches_full_sweep(net, n):
    x = _batch(n)

    def sweep(full):
        fp = net.forward_graph(x)
        leaf = fp.input
        base = net.forward_graph(np.zeros_like(x))
        ad.rescale_multipliers(fp.scores, base.scores, _one_hot(n),
                               wrt=ad._topo(fp.scores) if full else [leaf])
        if not full:
            assert all(p.grad is None for p in fp.params.values())
        return [leaf.grad]

    _assert_same_bytes(sweep)


@pytest.mark.parametrize("n", [1, 32])
@pytest.mark.parametrize("layer", ["conv1", "conv2"])
def test_layer_sweep_matches_full_sweep(net, n, layer):
    x = _batch(n)

    def sweep(full):
        fp = net.forward_graph(x)
        act = fp.activations[layer]
        fp.scores.backward(_one_hot(n),
                           wrt=ad._topo(fp.scores) if full else [act])
        if not full:
            assert fp.input.grad is None
            assert all(p.grad is None for p in fp.params.values())
            if layer == "conv2":
                assert fp.activations["conv1"].grad is None
        return [act.grad]

    _assert_same_bytes(sweep)


@pytest.mark.parametrize("n", [1, 32])
def test_parameter_sweep_matches_full_sweep(net, n):
    x = _batch(n)
    labels = np.arange(n) % 3

    def sweep(full):
        fp = net.forward_graph(x)
        _, dz = _cross_entropy(fp.scores.data, labels)
        fp.scores.backward(dz, wrt=ad._topo(fp.scores) if full
                           else fp.params.values())
        if not full:
            assert fp.input.grad is None
        return [p.grad for p in fp.params.values()]

    _assert_same_bytes(sweep)


@pytest.mark.parametrize("rule", [*ad.BACKWARD_RULES, "rescale"])
def test_only_wrt_tensors_keep_a_gradient(net, rule):
    # the input and two activations on one path: the nodes between them
    # take gradients during the sweep but keep none after it
    x = _batch(2)

    def sweep(full):
        fp = net.forward_graph(x)
        order = ad._topo(fp.scores)
        wanted = [fp.input, fp.activations["conv1"], fp.activations["pool2"]]
        wrt = order if full else wanted
        if rule == "rescale":
            base = net.forward_graph(np.zeros_like(x))
            ad.rescale_multipliers(fp.scores, base.scores, _one_hot(2),
                                   wrt=wrt)
        else:
            fp.scores.backward(_one_hot(2), rule, wrt=wrt)
        if not full:
            kept = {id(t) for t in wanted}
            assert all(node.grad is None for node in order
                       if id(node) not in kept)
        return [t.grad for t in wanted]

    _assert_same_bytes(sweep)


def test_unwanted_nodes_hold_no_gradient():
    x, k, b = Tensor(np.ones((1, 1, 4, 4))), Tensor(np.ones((2, 1, 3, 3))), \
        Tensor(np.zeros(2))
    out = ad.conv2d(x, k, b)
    out.backward(np.ones(out.shape), wrt=[k])
    assert k.grad is not None and k.grad.shape == k.shape
    assert x.grad is None and b.grad is None
    # a second sweep resets what the first one left
    out.backward(np.ones(out.shape), wrt=[x])
    assert x.grad is not None and k.grad is None and b.grad is None


def test_wrt_outside_the_graph_is_rejected():
    x = Tensor([1.0, 2.0])
    stray = Tensor([3.0])
    out = ad.relu(x)
    for wrt in ([x, stray], [stray], []):
        with pytest.raises(ValueError, match="tensors of the graph"):
            out.backward(np.ones(2), wrt=wrt)
    # a failed sweep leaves every vjp computing every gradient
    assert x._needs_grad and out._needs_grad


def test_vjp_outside_a_sweep_returns_every_gradient():
    rng = np.random.default_rng(23)
    x = Tensor(rng.normal(size=(2, 3, 5, 5)))
    k = Tensor(rng.normal(size=(4, 3, 3, 3)))
    b = Tensor(rng.normal(size=4))
    out = ad.conv2d(x, k, b)
    out.backward(np.ones(out.shape), wrt=[x])
    gx, gk, gb = out._vjp(np.ones(out.shape), RULE_STANDARD)
    assert gx.shape == x.shape and gk.shape == k.shape
    assert gb.shape == b.shape and (gb == 2 * 5 * 5).all()
    assert gx.tobytes() == x.grad.tobytes()


# ---------------------------------------------------------------------------
# one graph, many sweeps: what sharing a forward pass across methods needs

def _fresh_input_grad(net, x, rule):
    fp = net.forward_graph(x)
    fp.scores.backward(_one_hot(len(x)), rule, wrt=[fp.input])
    return fp.input.grad


@pytest.mark.parametrize("second", [RULE_DECONV, RULE_GUIDED])
def test_a_graph_swept_twice_gives_fresh_graph_bytes(net, second):
    x = _batch(1)
    fp = net.forward_graph(x)
    leaf = fp.input
    grads = {}
    for rule in (RULE_STANDARD, second):
        fp.scores.backward(_one_hot(1), rule, wrt=[leaf])
        grads[rule] = leaf.grad
    for rule, got in grads.items():
        assert got.tobytes() == _fresh_input_grad(net, x, rule).tobytes()


def test_rescale_needs_a_baseline_graph_of_the_same_structure(net):
    x = _batch(1)
    fp = net.forward_graph(x)
    # same ops, but another input shape; and one node fewer
    other = MiniConvNet(input_shape=(3, 16, 16), num_classes=3, seed=21)
    for base in (other.forward_graph(np.zeros((1, 3, 16, 16))).scores,
                 fp.scores.parents[0]):
        with pytest.raises(ValueError) as info:
            ad.rescale_multipliers(fp.scores, base, _one_hot(1),
                                   wrt=[fp.input])
        assert str(info.value) == \
            "baseline graph structure differs from the main graph"


def test_a_failed_sweep_leaves_the_graph_reusable(net):
    x = _batch(1)
    fp = net.forward_graph(x)
    leaf = fp.input
    fp.scores.backward(_one_hot(1), RULE_GUIDED, wrt=[leaf])
    with pytest.raises(ValueError, match="tensors of the graph"):
        fp.scores.backward(_one_hot(1), wrt=[leaf, Tensor(np.zeros(1))])
    assert all(node.grad is None and node._needs_grad
               for node in ad._topo(fp.scores))
    fp.scores.backward(_one_hot(1), wrt=[leaf])
    want = _fresh_input_grad(net, x, RULE_STANDARD)
    assert leaf.grad.tobytes() == want.tobytes()


def test_later_sweeps_write_no_earlier_array(net):
    # heatmaps keep ``leaf.grad[0]`` views, and every method reads the
    # forward arrays: no later sweep may write into either
    x = _batch(1)
    fp = net.forward_graph(x)
    leaf = fp.input
    order = ad._topo(fp.scores)
    forward = [node.data.tobytes() for node in order]
    fp.scores.backward(_one_hot(1), wrt=[leaf])
    kept = leaf.grad[0]
    before = kept.copy()
    fp.scores.backward(_one_hot(1), RULE_DECONV, wrt=[leaf])
    base = net.forward_graph(np.zeros_like(x))
    ad.rescale_multipliers(fp.scores, base.scores, _one_hot(1), wrt=[leaf])
    fp.scores.backward(_one_hot(1), wrt=[fp.activations["conv1"]])
    fp.scores.backward(_one_hot(1), RULE_GUIDED, wrt=[leaf])
    assert kept.tobytes() == before.tobytes()
    assert not np.shares_memory(kept, leaf.grad)
    assert [node.data.tobytes() for node in order] == forward


@pytest.mark.parametrize("every_node", [False, True])
@pytest.mark.parametrize("kind", [*ad.BACKWARD_RULES, "rescale", "train"])
def test_no_gradient_shares_memory(net, kind, every_node):
    # a sweep adopts the fresh arrays its vjps return as gradients: none may
    # alias another gradient, a forward array or the caller's seed.  The
    # root is the fc head's bias_add, whose vjp passes its own gradient
    # through; training keeps only the parameter leaves.
    n = 3
    x = _batch(n)
    fp = net.forward_graph(x)
    order = ad._topo(fp.scores)
    arrays = [node.data for node in order]
    if kind == "train":
        seed = _cross_entropy(fp.scores.data, np.arange(n) % 3)[1]
        wrt = list(fp.params.values())
    else:
        seed = _one_hot(n)
        wrt = [fp.input, *fp.activations.values()]
    if every_node:
        wrt = order
    if kind == "rescale":
        base = net.forward_graph(np.zeros_like(x))
        arrays += [node.data for node in ad._topo(base.scores)]
        ad.rescale_multipliers(fp.scores, base.scores, seed, wrt=wrt)
    else:
        rule = RULE_STANDARD if kind == "train" else kind
        fp.scores.backward(seed, rule, wrt=wrt)
    grads = [t.grad for t in wrt]
    for i, g in enumerate(grads):
        for other in [*arrays, seed, *grads[i + 1:]]:
            assert not np.shares_memory(g, other), (i, wrt[i].op)
