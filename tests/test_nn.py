"""Dense-net engine: shapes, exact values, finite-difference gradient checks."""

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedassoc.agents import TrainerConfig
from fedassoc.baselines import fedavg
from fedassoc.nn import (
    GATHER_MIN_OUTPUTS,
    DenseNet,
    backward,
    clip_global_norm,
    clone,
    copy_into_target,
    forward,
    init_net,
    linear_schedule,
    load_net,
    net_fingerprint,
    save_net,
    sgd_apply,
    sgd_step,
    td_loss,
    zero_grads,
)


def packed(weights, biases):
    """A `DenseNet` holding the given per-layer arrays, in `params` order."""
    dims = (np.shape(weights[0])[1], *(np.shape(w)[0] for w in weights))
    layers = [np.ravel(a) for w, b in zip(weights, biases) for a in (w, b)]
    return DenseNet(dims, np.concatenate(layers, dtype=float))


def finite_difference_grads(loss_fn, net, h=1e-5):
    """Central differences over every parameter of `net`."""
    numeric = DenseNet(net.dims)
    for i in range(net.params.size):
        orig = net.params[i]
        net.params[i] = orig + h
        up = loss_fn()
        net.params[i] = orig - h
        down = loss_fn()
        net.params[i] = orig
        numeric.params[i] = (up - down) / (2.0 * h)
    return numeric


def assert_grads_close(analytic, numeric, tol=1e-4):
    ga, gn = analytic.params, numeric.params
    denom = np.maximum(np.abs(ga) + np.abs(gn), 1.0)
    assert np.max(np.abs(ga - gn) / denom) < tol


# -- construction -----------------------------------------------------------

def test_init_shapes_and_param_count():
    net = init_net((14, 80, 80, 80, 16), seed_or_rng=0)
    assert net.dims == (14, 80, 80, 80, 16)
    assert len(net.weights) == 4
    num_params = sum(w.size + b.size for w, b in zip(net.weights, net.biases))
    assert num_params == 14 * 80 + 80 + 80 * 80 + 80 + 80 * 80 + 80 + 80 * 16 + 16
    assert num_params == 15456 == net.params.size


def test_init_fingerprint_is_pinned():
    # init draws only `uniform` (no BLAS), so the digest is the same on every host.
    net = init_net((14, 80, 80, 80, 16), np.random.default_rng(0))
    assert net_fingerprint(net) == (
        "57ea3d32f47143ed9c03fe717f8ee33a69c90dc2e9e615fd4f47c0aadce063b1"
    )


def test_init_deterministic_and_zero_bias():
    a = init_net((5, 7, 3), 123)
    b = init_net((5, 7, 3), 123)
    assert net_fingerprint(a) == net_fingerprint(b)
    for bias in a.biases:
        assert np.all(bias == 0.0)
    bound = np.sqrt(6.0 / (5 + 7))
    assert np.abs(a.weights[0]).max() <= bound


def test_init_rejects_bad_dims():
    with pytest.raises(ValueError):
        init_net((4,), 0)
    with pytest.raises(ValueError):
        init_net((4, 0, 2), 0)


# -- forward ------------------------------------------------------------------

def test_forward_zero_net_outputs_zero():
    net = init_net((3, 4, 2), 0)
    for w in net.weights:
        w[...] = 0.0
    out, _ = forward(net, np.ones(3))
    assert np.all(out == 0.0)


def test_forward_identity_single_layer():
    net = packed([np.eye(4)], [np.zeros(4)])
    x = np.array([0.5, -1.0, 2.0, 0.0])
    out, _ = forward(net, x)
    assert np.array_equal(out, x)


def test_forward_hand_computed():
    # 2-2-1 net evaluated with pencil and paper.
    net = packed(
        [np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[1.0, -1.0]])],
        [np.array([0.5, -0.5]), np.array([0.25])],
    )
    x = np.array([1.0, 0.5])
    # z1 = (1*1 + 2*0.5 + 0.5, 3*1 + 4*0.5 - 0.5) = (2.5, 4.5); relu keeps both
    # y = 2.5 - 4.5 + 0.25 = -1.75
    out, _ = forward(net, x)
    assert out[0] == pytest.approx(-1.75, abs=1e-12)


def test_forward_is_pure_and_batched():
    net = init_net((6, 9, 4), 5)
    x = np.random.default_rng(1).random(6)
    o1, _ = forward(net, x)
    o2, _ = forward(net, x)
    assert np.array_equal(o1, o2)
    batch = np.tile(x, (3, 1))
    ob, _ = forward(net, batch)
    assert ob.shape == (3, 4)
    assert np.allclose(ob[1], o1)


def test_forward_rejects_dim_mismatch():
    net = init_net((6, 4), 0)
    with pytest.raises(ValueError):
        forward(net, np.zeros(5))


# -- backward -------------------------------------------------------------------

def test_backward_zero_gradient_gives_zero():
    net = init_net((4, 5, 3), 2)
    out, cache = forward(net, np.ones(4))
    grads, d_in = backward(net, cache, np.zeros(3))
    assert all(np.all(g == 0.0) for g in grads.weights + grads.biases)
    assert np.all(d_in == 0.0)


def test_backward_input_gradient_identity_layer():
    net = packed([np.eye(3)], [np.zeros(3)])
    _, cache = forward(net, np.array([1.0, 2.0, 3.0]))
    dy = np.array([0.3, -0.1, 0.7])
    _, d_in = backward(net, cache, dy)
    assert np.array_equal(d_in, dy)


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(101)
    for trial in range(7):
        dims = [int(rng.integers(2, 7)) for _ in range(int(rng.integers(2, 5)))]
        net = init_net(dims, rng)
        x = rng.standard_normal((3, dims[0]))
        target = rng.standard_normal((3, dims[-1]))

        def loss_fn():
            out, _ = forward(net, x)
            return float(np.mean((out - target) ** 2))

        out, cache = forward(net, x)
        d_out = 2.0 * (out - target) / out.size
        analytic, _ = backward(net, cache, d_out)
        numeric = finite_difference_grads(loss_fn, net)
        assert_grads_close(analytic, numeric)


def test_backward_input_gradient_matches_finite_differences():
    rng = np.random.default_rng(99)
    net = init_net((5, 8, 3), rng)
    x = rng.standard_normal(5)

    def loss_of(xv):
        out, _ = forward(net, xv)
        return float(np.sum(out**2))

    out, cache = forward(net, x)
    _, d_in = backward(net, cache, 2.0 * out)
    h = 1e-6
    for i in range(5):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fd = (loss_of(xp) - loss_of(xm)) / (2 * h)
        assert d_in[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)


# -- selected-output pass ---------------------------------------------------------

def assert_close(got, want, rtol=1e-12):
    """Equal within `rtol` of the array's largest magnitude (summation order differs)."""
    assert got.shape == want.shape
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    assert np.max(np.abs(got - want), initial=0.0) <= rtol * scale


@st.composite
def selected_cases(draw):
    depth = draw(st.integers(1, 4))
    dims = [draw(st.integers(1, 12)) for _ in range(depth)]
    # Output widths on both sides of the gather threshold.
    wide = st.integers(GATHER_MIN_OUTPUTS, GATHER_MIN_OUTPUTS + 16)
    dims.append(draw(st.one_of(st.integers(1, 12), wide)))
    batch = draw(st.integers(1, 64))
    # Few distinct columns make repeated columns within a batch likely.
    distinct = draw(st.integers(1, dims[-1]))
    seed = draw(st.integers(0, 2**32 - 1))
    return dims, batch, distinct, seed


@settings(max_examples=150, deadline=None)
@given(selected_cases())
def test_selected_pass_matches_dense_pass(case):
    dims, batch, distinct, seed = case
    rng = np.random.default_rng(seed)
    net = init_net(dims, rng)
    for b in net.biases:
        b[...] = rng.standard_normal(b.shape)
    x = rng.standard_normal((batch, dims[0]))
    cols = rng.choice(dims[-1], distinct, replace=False)[rng.integers(0, distinct, batch)]
    d_sel = rng.standard_normal(batch)

    dense, cache_dense = forward(net, x)
    sel, cache_sel = forward(net, x, cols)
    rows = np.arange(batch)
    assert_close(sel, dense[rows, cols])

    d_dense = np.zeros_like(dense)
    d_dense[rows, cols] = d_sel
    g_dense, din_dense = backward(net, cache_dense, d_dense)
    g_sel, din_sel = backward(net, cache_sel, d_sel, cols)
    assert_close(g_sel.params, g_dense.params)
    assert_close(din_sel, din_dense)


@settings(max_examples=150, deadline=None)
@given(selected_cases())
def test_vector_pass_matches_one_row_batch(case):
    dims, _, _, seed = case
    rng = np.random.default_rng(seed)
    net = init_net(dims, rng)
    for b in net.biases:
        b[...] = rng.standard_normal(b.shape)
    x = rng.standard_normal(dims[0])
    d_out = rng.standard_normal(dims[-1])

    # Bit for bit: numpy runs a one-row batch as a matrix-vector product too.
    out, cache = forward(net, x)
    out_batch, cache_batch = forward(net, x[None])
    assert out.shape == (dims[-1],)
    assert out.tobytes() == out_batch[0].tobytes()

    g, d_in = backward(net, cache, d_out)
    g_batch, d_in_batch = backward(net, cache_batch, d_out[None])
    assert g.params.tobytes() == g_batch.params.tobytes()
    assert d_in.shape == (dims[0],)
    assert d_in.tobytes() == d_in_batch[0].tobytes()


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(1, 90), min_size=2, max_size=5),
    st.integers(1, 70),
    st.integers(0, 2**32 - 1),
)
def test_each_row_of_a_stacked_pass_is_its_vector_pass(dims, rows, seed):
    rng = np.random.default_rng(seed)
    net = init_net(dims, rng)
    for b in net.biases:
        b[...] = rng.standard_normal(b.shape)
    x = rng.standard_normal((rows, dims[0]))
    out, cache = forward(net, x, stack=True)
    assert out.shape == (rows, dims[-1])
    for i in range(rows):
        vec, vec_cache = forward(net, x[i])
        assert out[i].tobytes() == vec.tobytes()
        for layer, vec_layer in zip(cache, vec_cache):
            assert layer[i].tobytes() == vec_layer.tobytes()


@settings(max_examples=150, deadline=None)
@given(selected_cases())
def test_backward_overwrites_given_grads(case):
    dims, batch, distinct, seed = case
    rng = np.random.default_rng(seed)
    net = init_net(dims, rng)
    for b in net.biases:
        b[...] = rng.standard_normal(b.shape)
    x = rng.standard_normal((batch, dims[0]))
    cols = rng.choice(dims[-1], distinct, replace=False)[rng.integers(0, distinct, batch)]
    for sel in (None, cols):
        out, cache = forward(net, x, sel)
        d_out = rng.standard_normal(out.shape)
        given_grads = zero_grads(net)
        params = given_grads.params
        params.fill(np.nan)
        got, d_in = backward(net, cache, d_out, sel, grads=given_grads)
        fresh, d_in_fresh = backward(net, cache, d_out, sel)
        assert got is given_grads and got.params is params
        assert params.tobytes() == fresh.params.tobytes()
        assert d_in.tobytes() == d_in_fresh.tobytes()
        for other_dims in (dims[:-1] + [dims[-1] + 1], [dims[0] + 1] + dims[1:], dims + [3]):
            other = DenseNet(other_dims)
            other.params.fill(np.nan)
            with pytest.raises(ValueError, match="gradient dims"):
                backward(net, cache, d_out, sel, grads=other)
            assert np.isnan(other.params).all()


def test_backward_rejects_grads_of_another_layout():
    # A net's layout is fixed when it is built: params of any other layout are refused.
    params = np.zeros(2 * (3 * 4 + 4))
    for bad in (params.astype(np.float32), params[::2], params[:-1], list(params)):
        with pytest.raises(ValueError, match="C-contiguous float64"):
            DenseNet((3, 4, 4), bad)


def test_selected_output_loss_matches_finite_differences():
    rng = np.random.default_rng(404)
    for width in (7, GATHER_MIN_OUTPUTS):
        net = init_net((4, 6, 5, width), rng)
        for b in net.biases:  # nonzero, so no sample sits on the relu kink
            b[...] = rng.standard_normal(b.shape)
        x = rng.standard_normal((9, 4))
        cols = np.array([0, 3, 3, 6, 1, 3, 0, 2, 6])
        target = rng.standard_normal(9)

        def loss_fn():
            pred, _ = forward(net, x, cols)
            return td_loss(pred, target)[0]

        pred, cache = forward(net, x, cols)
        loss, d_pred = td_loss(pred, target)
        assert loss == float(np.mean((pred - target) ** 2))
        analytic, _ = backward(net, cache, d_pred, cols)
        assert_grads_close(analytic, finite_difference_grads(loss_fn, net))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_td_loss_rejects_non_finite(bad):
    with pytest.raises(RuntimeError, match="non-finite training loss"):
        td_loss(np.array([0.5, bad]), np.zeros(2))


def test_selected_pass_rejects_bad_cols():
    net = init_net((3, 4, 5), 0)
    x = np.ones((2, 3))
    for cols in ([0, 5], [-1, 0], [0], [0.0, 1.0]):
        with pytest.raises(ValueError):
            forward(net, x, np.array(cols))
    with pytest.raises(ValueError):
        forward(net, np.ones(3), np.array([0]))
    _, cache = forward(net, x, np.array([0, 4]))
    with pytest.raises(ValueError):
        backward(net, cache, np.ones(3), np.array([0, 4]))
    with pytest.raises(ValueError):
        backward(net, cache, np.ones(2), np.array([0, 5]))


# -- updates -----------------------------------------------------------------------

def test_sgd_scalar_case():
    net = packed([np.array([[1.0]])], [np.array([0.0])])
    grads = packed([np.array([[2.0]])], [np.array([0.0])])
    sgd_apply(net, grads, 0.1)
    assert net.weights[0][0, 0] == pytest.approx(0.8, abs=1e-15)


def test_sgd_zero_lr_keeps_net():
    net = init_net((3, 3), 0)
    before = net_fingerprint(net)
    grads = packed([np.ones((3, 3))], [np.ones(3)])
    sgd_apply(net, grads, 0.0)
    assert net_fingerprint(net) == before


def test_sgd_rejects_non_finite():
    net = init_net((2, 2), 0)
    grads = packed([np.array([[np.nan, 0.0], [0.0, 0.0]])], [np.zeros(2)])
    with pytest.raises(ValueError):
        sgd_apply(net, grads, 0.1)


def test_two_steps_equal_one_summed_step_for_linear_net():
    # Pure SGD is additive in the gradients for a fixed parameter vector.
    g1 = packed([np.array([[2.0]])], [np.array([1.0])])
    g2 = packed([np.array([[-0.5]])], [np.array([3.0])])
    net_a = packed([np.array([[1.0]])], [np.array([0.5])])
    net_b = clone(net_a)
    sgd_apply(net_a, g1, 0.2)
    sgd_apply(net_a, g2, 0.2)
    summed = DenseNet(g1.dims, g1.params + g2.params)
    sgd_apply(net_b, summed, 0.2)
    assert net_a.weights[0][0, 0] == pytest.approx(net_b.weights[0][0, 0], rel=1e-12)
    assert net_a.biases[0][0] == pytest.approx(net_b.biases[0][0], rel=1e-12)


def test_clip_global_norm():
    g = packed([np.array([[3.0, 4.0]])], [np.zeros(1)])
    assert clip_global_norm([g], 1.0) == 5.0
    assert clip_global_norm([g], np.inf) == pytest.approx(1.0)
    g2 = packed([np.array([[0.3, 0.4]])], [np.zeros(1)])
    assert clip_global_norm([g2], np.inf) == pytest.approx(0.5)
    assert g2.params.tolist() == [0.3, 0.4, 0.0]


def test_sgd_apply_rejects_shallow_gradient_without_writing():
    net = init_net((3, 4, 2), 0)
    before = net_fingerprint(net)
    grads = DenseNet((3, 4), np.ones(16))
    with pytest.raises(ValueError, match=r"gradient dims \(3, 4\) do not match"):
        sgd_apply(net, grads, 0.1)
    assert net_fingerprint(net) == before


def test_sgd_apply_rejects_late_shape_mismatch_without_writing():
    net = init_net((3, 4, 2), 0)
    before = net_fingerprint(net)
    grads = DenseNet((3, 4, 3), np.ones(31))
    with pytest.raises(ValueError, match=r"gradient dims \(3, 4, 3\) do not match"):
        sgd_apply(net, grads, 0.1)
    assert net_fingerprint(net) == before


def test_sgd_step_matches_clip_then_apply():
    # One norm formula: both return the same float for the same gradients, on
    # small nets and on a local net and the joint head at the default dims.
    rng = np.random.default_rng(7)
    for dims, rounds in [((3, 5, 2), (4, 6)), 1], [((14, 80, 80, 80, 16), (32, 80, 80, 256)), 10]:
        nets = [init_net(d, i + 1) for i, d in enumerate(dims)]
        # Python integers above int64 (2**70) and above any float (10**400), as a config
        # may hold them, compare exactly; neither clips these norms, like inf.
        for max_norm in (0.1, 1e6, np.inf, 2**70, 10**400) * rounds:
            grads = [DenseNet(n.dims, rng.standard_normal(n.params.size)) for n in nets]
            ref = [clone(n) for n in nets]
            ref_grads = [clone(g) for g in grads]
            ref_norm = clip_global_norm(ref_grads, max_norm)
            for n, g in zip(ref, ref_grads):
                sgd_apply(n, g, 0.05)
            norm = sgd_step(list(zip(nets, grads)), 0.05, max_norm)
            assert norm == ref_norm
            for n, r in zip(nets, ref):
                assert np.allclose(n.params, r.params, rtol=1e-13, atol=1e-15)


def test_sgd_step_norm_sums_each_layer_array_in_file_order():
    # One dot over the whole flat array rounds differently for most such sets.
    rng = np.random.default_rng(21)
    for _ in range(20):
        nets = [init_net((14, 80, 16), rng), init_net((32, 80, 256), rng)]
        grads = [DenseNet(n.dims, rng.standard_normal(n.params.size)) for n in nets]
        total = 0.0
        for g in grads:
            for dw, db in zip(g.weights, g.biases):
                total += float(np.dot(dw.ravel(), dw.ravel()))
                total += float(np.dot(db, db))
        assert sgd_step(list(zip(nets, grads)), 0.0) == float(np.sqrt(total))


def test_sgd_step_checks_every_net_before_writing():
    first, second = init_net((2, 3), 0), init_net((3, 2), 1)
    before = [net_fingerprint(first), net_fingerprint(second)]
    ok = packed([np.ones((3, 2))], [np.ones(3)])
    bad = packed([np.ones((2, 3))], [np.array([0.0, np.inf])])
    with pytest.raises(ValueError):
        sgd_step([(first, ok), (second, bad)], 0.1, 10.0)
    assert [net_fingerprint(first), net_fingerprint(second)] == before


@pytest.mark.parametrize("max_norm", [-1.0, 0.0, np.nan])
def test_clipping_rejects_non_positive_bound(max_norm):
    net = packed([np.array([[1.0, 1.0]])], [np.array([0.0])])
    g = packed([np.array([[3.0, 4.0]])], [np.zeros(1)])
    with pytest.raises(ValueError):
        sgd_step([(net, g)], 0.1, max_norm)
    with pytest.raises(ValueError):
        clip_global_norm([g], max_norm)
    assert np.array_equal(g.weights[0], [[3.0, 4.0]])
    assert np.array_equal(net.weights[0], [[1.0, 1.0]])


# -- target copies --------------------------------------------------------------------

def test_copy_into_target_bit_equal_and_frozen():
    main = init_net((4, 6, 2), 11)
    target = init_net((4, 6, 2), 12)
    copy_into_target(main, target)
    assert net_fingerprint(main) == net_fingerprint(target)
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = rng.random(4)
        om, _ = forward(main, x)
        ot, _ = forward(target, x)
        assert np.array_equal(om, ot)
    # Later main updates leave the target untouched.
    before = net_fingerprint(target)
    sgd_apply(main, DenseNet(main.dims, np.ones(main.params.size)), 0.1)
    assert net_fingerprint(target) == before
    assert net_fingerprint(main) != before


def test_copy_is_idempotent():
    main = init_net((3, 3), 1)
    t1 = clone(main)
    copy_into_target(main, t1)
    t2 = clone(t1)
    copy_into_target(t1, t2)
    assert net_fingerprint(t2) == net_fingerprint(main)


def test_copy_rejects_mismatch():
    target = init_net((3, 4), 0)
    before = net_fingerprint(target)
    with pytest.raises(ValueError):
        copy_into_target(init_net((3, 3), 0), target)
    assert net_fingerprint(target) == before


# -- learning-rate schedule --------------------------------------------------------------

def test_lr_schedule_endpoints_and_midpoint():
    assert linear_schedule(0.01, 0.001, 250, 1) == 0.01
    assert linear_schedule(0.01, 0.001, 250, 250) == pytest.approx(0.001)
    assert linear_schedule(0.01, 0.001, 250, 10_000) == pytest.approx(0.001)
    assert linear_schedule(0.01, 0.001, 11, 6) == pytest.approx(0.0055)
    # A length of 1 steps from start straight to end.
    assert linear_schedule(0.01, 0.001, 1, 1) == 0.01
    assert linear_schedule(0.01, 0.001, 1, 2) == 0.001


def test_lr_schedule_validation():
    with pytest.raises(ValueError, match="lr_start >= lr_end > 0"):
        TrainerConfig(lr_start=0.001, lr_end=0.01, lr_decay_episodes=10).validate()
    with pytest.raises(ValueError, match="decay_episodes must be >= 1"):
        TrainerConfig(lr_decay_episodes=0).validate()
    with pytest.raises(ValueError, match="1-based"):
        linear_schedule(0.01, 0.001, 250, 0)


# -- checkpoint format ---------------------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    net = init_net((7, 5, 9), 77)
    path = tmp_path / "net.bin"
    save_net(path, net)
    loaded = load_net(path)
    assert loaded.dims == net.dims
    assert net_fingerprint(loaded) == net_fingerprint(net)


def test_file_body_is_params_and_fingerprint_hashes_it(tmp_path):
    net = init_net((7, 5, 9), 77)
    path = tmp_path / "net.bin"
    save_net(path, net)
    data = path.read_bytes()
    assert data[:16] == b"DNET" + struct.pack("<III", 1, 0, 3)
    body = data[16 + 8 * 3 :]
    assert body == net.params.tobytes()
    assert net_fingerprint(net) == hashlib.sha256(body).hexdigest()


def _saved_and_loaded(net, tmp_path):
    save_net(tmp_path / "net.bin", net)
    return load_net(tmp_path / "net.bin")


@pytest.mark.parametrize(
    "make",
    [
        lambda src, tmp_path: src,
        lambda src, tmp_path: clone(src),
        lambda src, tmp_path: fedavg([src, clone(src)]),
        lambda src, tmp_path: _saved_and_loaded(src, tmp_path),
        lambda src, tmp_path: zero_grads(src),
    ],
    ids=["init_net", "clone", "fedavg", "load_net", "zero_grads"],
)
def test_layer_views_alias_their_own_params(tmp_path, make):
    src = init_net((4, 6, 5, 3), 9)
    source_params = src.params.copy()
    made = make(src, tmp_path)
    # Layer i's weights hold 2i + 1 and its biases 2i + 2, written through the
    # views; `params` must read them in file order: w0, b0, w1, b1, ...
    want = []
    for i, (w, b) in enumerate(zip(made.weights, made.biases)):
        w[...] = 2 * i + 1
        b[...] = 2 * i + 2
        want += [np.full(w.size, 2.0 * i + 1), np.full(b.size, 2.0 * i + 2)]
    assert made.params.tobytes() == np.concatenate(want).tobytes()
    if made is not src:
        assert src.params.tobytes() == source_params.tobytes()


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPEnope")
    with pytest.raises(ValueError):
        load_net(path)


def _edit_header(offset, fmt, value):
    def edit(data):
        struct.pack_into(fmt, data, offset, value)
        return data
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_edit_header(4, "<I", 2), "unsupported version 2"),
        (_edit_header(8, "<I", 3), "unknown activation code 3"),
        (_edit_header(8, "<I", 1), "unknown activation code 1"),
        (_edit_header(12, "<I", 1), "1 layer dims do not fit"),
        (_edit_header(12, "<I", 0xFFFFFFFF), "4294967295 layer dims do not fit"),
        (_edit_header(16, "<q", -7), "layer dims [-7, 5, 9] must be >= 1"),
        (_edit_header(16, "<q", 2**62), "layer dims [4611686018427387904, 5, 9] need"),
        (lambda data: data + b"\0", "holds 793 bytes, layer dims [7, 5, 9] need 792"),
        (lambda data: data[:-1], "holds 791 bytes"),
        (lambda data: data[:15], "not a DNET checkpoint"),
        (_edit_header(424, "<d", np.inf), "non-finite parameters"),
    ],
    ids=["version", "activation", "tanh-code", "one-dim", "dim-count", "negative-dim",
         "huge-dim", "extra-byte", "cut-byte", "cut-header", "inf"],
)
def test_load_rejects_malformed_files_naming_them(tmp_path, edit, message):
    path = tmp_path / "net.bin"
    save_net(path, init_net((7, 5, 9), 77))
    path.write_bytes(bytes(edit(bytearray(path.read_bytes()))))
    with pytest.raises(ValueError) as info:
        load_net(path)
    assert str(info.value).startswith(f"{path}: ") and message in str(info.value)
