"""Sequence building, forward-pass contracts, gradients, and training."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sevtriage import neural
from sevtriage.errors import ConfigError, ShapeError

TEXTS = [
    "remote code execution overflow danger",
    "minor cosmetic issue only",
    "stack buffer overflow exploit remote",
    "harmless typo fix note",
    "remote overflow attack vector code",
    "low impact logging bug",
    "code execution danger overflow remote",
    "benign styling glitch fix",
]
LABELS = np.array([1, 0, 1, 0, 1, 0, 1, 0])


def small_spec(variant, seed=3, dropout=0.0):
    return neural.NetSpec(
        variant=variant,
        embedding_dim=6,
        conv_filters=5,
        kernel_width=3,
        tabular_hidden=4,
        merge=(8, 4),
        dropout=dropout,
        seed=seed,
    )


@pytest.fixture(scope="module")
def seqs():
    return neural.build_sequences(TEXTS, max_len=8, vocab_cap=40)


@pytest.fixture(scope="module")
def tabular():
    rng = np.random.default_rng(5)
    return rng.random((len(TEXTS), 3))


class TestBuildSequences:
    def test_short_text_right_padded(self, seqs):
        row = seqs.ids[1]  # four tokens
        assert row[4:].tolist() == [0, 0, 0, 0]
        assert (row[:4] > 0).all()

    def test_most_frequent_token_gets_id_one(self):
        s = neural.build_sequences(["aa aa bb", "aa cc"], max_len=4, vocab_cap=10)
        assert s.vocabulary["aa"] == 1

    def test_oov_tokens_dropped_not_mapped(self, seqs):
        encoded = neural.apply_sequences(seqs, ["remote zzznever code"])
        row = encoded.ids[0]
        assert (row[:2] > 0).all() and row[2] == 0  # two known tokens survive

    def test_empty_description_all_zero(self, seqs):
        encoded = neural.apply_sequences(seqs, [""])
        assert not encoded.ids.any()

    def test_vocab_cap_respected(self):
        s = neural.build_sequences(TEXTS, max_len=8, vocab_cap=5)
        assert s.vocab_size == 6
        assert s.ids.max() <= 5

    def test_truncation_to_max_len(self):
        s = neural.build_sequences(["aa bb cc dd ee ff"], max_len=3, vocab_cap=10)
        assert s.ids.shape == (1, 3)
        assert (s.ids[0] > 0).all()


class TestForward:
    def test_all_zero_parameters_give_half(self, seqs, tabular):
        for variant in ("ffnn", "cnn"):
            spec = small_spec(variant)
            params = neural.init_params(spec, seqs.vocab_size, tabular.shape[1])
            params = {k: np.zeros_like(v) for k, v in params.items()}
            probs, _ = neural._forward(params, spec, seqs.ids, tabular)
            assert np.allclose(probs, 0.5)

    def test_ffnn_invariant_to_token_order(self, seqs, tabular):
        spec = small_spec("ffnn")
        params = neural.init_params(spec, seqs.vocab_size, tabular.shape[1])
        ids = seqs.ids.copy()
        probs_a, _ = neural._forward(params, spec, ids, tabular)
        shuffled = ids.copy()
        for row in shuffled:
            non_pad = row[row > 0]
            row[: len(non_pad)] = non_pad[::-1]
        probs_b, _ = neural._forward(params, spec, shuffled, tabular)
        assert np.allclose(probs_a, probs_b, atol=1e-12)

    def test_cnn_maxpool_drops_when_trigram_removed(self, seqs, tabular):
        spec = small_spec("cnn", seed=9)
        params = neural.init_params(spec, seqs.vocab_size, tabular.shape[1])
        ids = seqs.ids[:1].copy()
        # craft a filter that responds strongly to the first trigram of row 0
        emb = params["embed"][ids[0][:3]].ravel()
        params["conv_w"][0] = emb * 10.0
        _, cache = neural._forward(params, spec, ids, tabular[:1])
        strong = cache["conv_a"][0, :, 0].max()
        removed = ids.copy()
        removed[0, :] = 0
        _, cache2 = neural._forward(params, spec, removed, tabular[:1])
        weak = cache2["conv_a"][0, :, 0].max()
        assert strong > weak

    def test_dropout_runs_exactly_when_a_generator_is_given(self, seqs, tabular):
        spec = small_spec("ffnn", dropout=0.5)
        params = neural.init_params(spec, seqs.vocab_size, tabular.shape[1])
        _, cache = neural._forward(params, spec, seqs.ids, tabular)
        assert not [key for key in cache if key.endswith("_keep")]
        _, cache = neural._forward(params, spec, seqs.ids, tabular, drop_rng=np.random.default_rng(0))
        assert [key for key in cache if key.endswith("_keep")] == [f"merge{li}_keep" for li in range(len(spec.merge))]

    def test_inference_repeatable_bitwise(self, seqs, tabular):
        spec = small_spec("cnn", seed=1, dropout=0.5)  # dropout must not leak into inference
        net = neural.train(spec, seqs, tabular, LABELS, neural.TrainConfig(epochs=2, batch=4))
        a = net.predict_proba(seqs.ids, tabular)
        b = net.predict_proba(seqs.ids, tabular)
        assert np.array_equal(a, b)

    def test_shape_mismatch_raises(self, seqs, tabular):
        spec = small_spec("ffnn", seed=0)
        net = neural.train(spec, seqs, tabular, LABELS, neural.TrainConfig(epochs=1, batch=4))
        with pytest.raises(ShapeError):
            net.predict_proba(seqs.ids[:, :4], tabular)


class TestGradients:
    @pytest.mark.parametrize("variant", ["ffnn", "cnn"])
    def test_analytic_gradients_match_finite_differences(self, variant, seqs, tabular):
        spec = small_spec(variant, seed=11)
        params = neural.init_params(spec, seqs.vocab_size, tabular.shape[1])
        ids4, tab4, y4 = seqs.ids[:4], tabular[:4], LABELS[:4].astype(float)
        _, grads = neural.loss_and_grads(params, spec, ids4, tab4, y4)
        h = 1e-6
        for key in sorted(params):
            flat = params[key].ravel()
            stride = max(1, flat.size // 25)
            for idx in range(0, flat.size, stride):
                orig = flat[idx]
                flat[idx] = orig + h
                lp, _ = neural.loss_and_grads(params, spec, ids4, tab4, y4)
                flat[idx] = orig - h
                lm, _ = neural.loss_and_grads(params, spec, ids4, tab4, y4)
                flat[idx] = orig
                numeric = (lp - lm) / (2 * h)
                analytic = grads[key].ravel()[idx]
                err = abs(numeric - analytic) / max(1e-6, abs(numeric) + abs(analytic))
                assert err < 1e-4, f"{key}[{idx}]: numeric={numeric} analytic={analytic}"


class TestTraining:
    def test_toy_task_reaches_perfect_training_accuracy(self, seqs, tabular):
        for variant in ("ffnn", "cnn"):
            spec = small_spec(variant, seed=3)
            cfg = neural.TrainConfig(epochs=200, batch=8, lr=0.02)
            net = neural.train(spec, seqs, tabular, LABELS, cfg)
            preds = (net.predict_proba(seqs.ids, tabular) >= 0.5).astype(int)
            assert np.array_equal(preds, LABELS), variant

    def test_identical_seeds_identical_loss_history(self, seqs, tabular):
        spec = small_spec("cnn", seed=21, dropout=0.3)
        cfg = neural.TrainConfig(epochs=4, batch=4)
        a = neural.train(spec, seqs, tabular, LABELS, cfg)
        b = neural.train(spec, seqs, tabular, LABELS, cfg)
        assert a.loss_history == b.loss_history
        assert all(np.array_equal(a.params[k], b.params[k]) for k in a.params)

    def test_small_lr_first_epoch_decreases_loss(self, seqs, tabular):
        spec = small_spec("ffnn", seed=6)
        initial_params = neural.init_params(spec, seqs.vocab_size, tabular.shape[1])
        initial_loss, _ = neural.loss_and_grads(initial_params, spec, seqs.ids, tabular, LABELS.astype(float))
        net = neural.train(spec, seqs, tabular, LABELS, neural.TrainConfig(epochs=1, batch=8, lr=1e-4))
        after_loss, _ = neural.loss_and_grads(net.params, spec, seqs.ids, tabular, LABELS.astype(float))
        assert after_loss < initial_loss

    def test_loss_history_length_equals_epochs(self, seqs, tabular):
        net = neural.train(small_spec("ffnn", seed=2), seqs, tabular, LABELS, neural.TrainConfig(epochs=5, batch=4))
        assert len(net.loss_history) == 5

    def test_row_count_mismatch_raises(self, seqs, tabular):
        with pytest.raises(ShapeError):
            neural.train(small_spec("ffnn", seed=0), seqs, tabular[:3], LABELS, neural.TrainConfig(epochs=1))


@pytest.fixture(scope="module")
def nets(seqs, tabular):
    out = {}
    for variant in ("ffnn", "cnn"):
        spec = neural.NetSpec(variant=variant, embedding_dim=6, conv_filters=32, kernel_width=3,
                              tabular_hidden=4, merge=(64, 32), dropout=0.0, seed=4)
        out[variant] = neural.train(spec, seqs, tabular, LABELS, neural.TrainConfig(epochs=1, batch=8))
    return out


class TestActivations:
    def test_merge_layer_width_64(self, nets, seqs, tabular):
        sample = (seqs.ids[0], tabular[0])
        vec = neural.activations(nets["ffnn"], "merge_0", sample)
        assert vec.shape == (64,)

    def test_first_eight_filter_maps(self, nets, seqs, tabular):
        sample = (seqs.ids[0], tabular[0])
        maps = neural.activations(nets["cnn"], "conv_maps", sample)
        assert maps.shape[0] == 32
        assert maps[:8].shape == (8, seqs.max_len - 3 + 1)

    def test_zero_parameter_net_zero_activations(self, seqs, tabular):
        spec = small_spec("cnn")
        params = {k: np.zeros_like(v) for k, v in neural.init_params(spec, seqs.vocab_size, tabular.shape[1]).items()}
        net = neural.TrainedNet(spec, params, (0.0,), tabular.shape[1], seqs.max_len)
        for layer in ("merge_0", "merge_1"):
            assert not neural.activations(net, layer, (seqs.ids[0], tabular[0])).any()

    def test_unknown_layer_raises_lookup(self, nets, seqs, tabular):
        with pytest.raises(KeyError):
            neural.activations(nets["ffnn"], "nope", (seqs.ids[0], tabular[0]))
        with pytest.raises(KeyError):
            neural.activations(nets["ffnn"], "conv_maps", (seqs.ids[0], tabular[0]))


# ---------------------------------------------------------------------------
# Bit-identity oracle: backpropagation with the dense einsum and np.add.at,
# which the winner gather and the bincount must reproduce bit for bit. Bits are
# compared, not values, so signed zeros count too. No digest of a trained net
# is recorded: its matmuls make the bits depend on the BLAS.


def oracle_loss_and_grads(params, spec, ids, tab, y, drop_rng=None):
    """Loss plus analytic gradients for every parameter (backpropagation)."""
    y = np.asarray(y, dtype=np.float64).ravel()
    probs, cache = neural._forward(params, spec, ids, tab, drop_rng=drop_rng)
    n = len(y)
    loss = neural.bce_loss(cache["logit"], y)
    grads = {k: np.zeros_like(v) for k, v in params.items()}

    dlogit = (probs - y)[:, None] / n  # (B, 1)
    grads["out_w"] = cache["out_x"].T @ dlogit
    grads["out_b"] = dlogit.sum(axis=0)
    dx = dlogit @ params["out_w"].T

    for li in reversed(range(len(spec.merge))):
        if f"merge{li}_keep" in cache:
            dx = dx * cache[f"merge{li}_keep"]
        dz = dx * (cache[f"merge{li}_z"] > 0.0)
        grads[f"merge{li}_w"] = cache[f"merge{li}_x"].T @ dz
        grads[f"merge{li}_b"] = dz.sum(axis=0)
        dx = dz @ params[f"merge{li}_w"].T

    dtext = dx[:, : spec.text_out]
    dtab_a = dx[:, spec.text_out :]

    dtab_z = dtab_a * (cache["tab_z"] > 0.0)
    grads["tab_w"] = cache["tab"].T @ dtab_z
    grads["tab_b"] = dtab_z.sum(axis=0)

    ids_arr = cache["ids"]
    demb = np.zeros_like(cache["emb"])
    if spec.variant == "ffnn":
        scale = (cache["mask"] / cache["safe"][:, None])[:, :, None]
        demb = dtext[:, None, :] * scale
    else:
        dconv_a = np.zeros_like(cache["conv_a"])
        np.put_along_axis(dconv_a, cache["argmax"][:, None, :], dtext[:, None, :], axis=1)
        dconv_z = dconv_a * (cache["conv_z"] > 0.0)
        grads["conv_w"] = np.einsum("bpf,bpk->fk", dconv_z, cache["windows"])
        grads["conv_b"] = dconv_z.sum(axis=(0, 1))
        dwindows = dconv_z @ params["conv_w"]  # (B, P, w*e)
        p = dwindows.shape[1]
        e = spec.embedding_dim
        for i in range(spec.kernel_width):
            demb[:, i : i + p, :] += dwindows[:, :, i * e : (i + 1) * e]
    np.add.at(grads["embed"], ids_arr.ravel(), demb.reshape(-1, spec.embedding_dim))
    return loss, grads


def default_shape_spec(variant, dropout=0.3):
    """The default layer widths (embedding 64, 32 filters of width 3, merge 64 and 32)."""
    return neural.NetSpec(variant=variant, dropout=dropout, seed=13)


def assert_same_bits(got: dict, want: dict):
    assert list(got) == list(want)
    for key in want:
        assert got[key].dtype == want[key].dtype and got[key].shape == want[key].shape, key
        assert got[key].tobytes() == want[key].tobytes(), key


class TestOracleBits:
    @pytest.mark.parametrize("variant", ["ffnn", "cnn"])
    @pytest.mark.parametrize("dropout", [False, True], ids=["inference", "dropout"])
    @pytest.mark.parametrize("dead", [False, True], ids=["live", "dead_filters"])
    def test_gradients_equal_oracle(self, variant, dropout, dead, seqs, tabular):
        spec = default_shape_spec(variant)
        params = neural.init_params(spec, seqs.vocab_size, tabular.shape[1])
        if dead:
            # units that never fire: their gradients are zeros of either sign
            params["tab_b"][:2] = -100.0
            if variant == "cnn":
                params["conv_b"][:5] = -100.0
        y = LABELS.astype(float)
        rngs = [np.random.default_rng(3), np.random.default_rng(3)] if dropout else [None, None]
        loss, grads = neural.loss_and_grads(params, spec, seqs.ids, tabular, y, drop_rng=rngs[0])
        want_loss, want = oracle_loss_and_grads(params, spec, seqs.ids, tabular, y, drop_rng=rngs[1])
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert_same_bits(grads, want)
        if dead and variant == "cnn":
            assert not grads["conv_w"][:5].any()

    @pytest.mark.parametrize("variant", ["ffnn", "cnn"])
    def test_training_equals_oracle(self, variant, seqs, tabular, monkeypatch):
        spec = default_shape_spec(variant)
        cfg = neural.TrainConfig(epochs=3, batch=3)
        net = neural.train(spec, seqs, tabular, LABELS, cfg)
        monkeypatch.setattr(neural, "loss_and_grads", oracle_loss_and_grads)
        want = neural.train(spec, seqs, tabular, LABELS, cfg)
        assert_same_bits(net.params, want.params)
        assert np.array(net.loss_history).tobytes() == np.array(want.loss_history).tobytes()


def finite(max_abs=1e3):
    """Finite doubles, zeros of both signs included."""
    return st.floats(-max_abs, max_abs, allow_nan=False) | st.sampled_from([0.0, -0.0])


@st.composite
def embedding_cases(draw):
    vocab, e = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 7)))
    ids = draw(arrays(np.int64, shape, elements=st.integers(0, vocab - 1)))
    demb = draw(arrays(np.float64, (*shape, e), elements=finite()))
    return ids, demb, vocab


@st.composite
def conv_cases(draw):
    """A conv gradient that is zero off each (row, filter)'s max-pool winner, as backprop makes it."""
    b, p, f, k = (draw(st.integers(1, n)) for n in (6, 8, 5, 9))
    windows = draw(arrays(np.float64, (b, p, k), elements=finite()))
    conv_z = draw(arrays(np.float64, (b, p, f), elements=finite(2.0)))
    dtext = draw(arrays(np.float64, (b, f), elements=finite()))
    conv_a = np.maximum(conv_z, 0.0)
    argmax = conv_a.argmax(axis=1)
    dconv_a = np.zeros_like(conv_a)
    np.put_along_axis(dconv_a, argmax[:, None, :], dtext[:, None, :], axis=1)
    return dconv_a * (conv_z > 0.0), argmax, windows


class TestGradientRewrites:
    @settings(max_examples=200, deadline=None)
    @given(embedding_cases())
    def test_embedding_bincount_equals_add_at(self, case):
        ids, demb, vocab = case
        want = np.zeros((vocab, demb.shape[-1]))
        np.add.at(want, ids.ravel(), demb.reshape(-1, demb.shape[-1]))
        got = neural._embedding_grad(ids, demb, vocab)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @settings(max_examples=300, deadline=None)
    @given(conv_cases())
    def test_winner_gather_equals_einsum(self, case):
        dconv_z, argmax, windows = case
        want = np.einsum("bpf,bpk->fk", dconv_z, windows)
        got = neural._conv_weight_grad(dconv_z, argmax, windows)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestNoMutation:
    @pytest.mark.parametrize("variant", ["ffnn", "cnn"])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_train_leaves_inputs_unchanged(self, variant, order, seqs):
        tab = np.asarray(np.random.default_rng(5).random((len(TEXTS), 3)), order=order)
        y = LABELS.copy()
        before = [(a.tobytes(order="A"), a.flags.f_contiguous) for a in (seqs.ids, tab, y)]
        neural.train(small_spec(variant, seed=1, dropout=0.3), seqs, tab, y, neural.TrainConfig(epochs=2, batch=3))
        assert [(a.tobytes(order="A"), a.flags.f_contiguous) for a in (seqs.ids, tab, y)] == before
