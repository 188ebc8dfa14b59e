"""Model assembly, structure accessors, pruning, checkpoints."""

import copy
import json
import pickle
import tracemalloc

import numpy as np
import pytest

from collapse_lab.errors import ConfigError
from collapse_lab.net.layers import BatchNorm, Dense, LeakyReLU, ReLU
from collapse_lab.net.model import Arch, MLP, load_checkpoint, pruned_copy, save_checkpoint
from collapse_lab.net.train import TrainConfig, dataset_for, train_round


def small_model(norm="bn", **kw) -> MLP:
    args = dict(
        in_dim=6, classes=3, hidden_width=8, hidden_layers=2, norm=norm, activation="relu", alpha=0.0, gamma_init=1.0
    )
    args.update(kw)
    return MLP.build(Arch(**args), np.random.default_rng(0))


class TestBuild:
    def test_block_layout_with_norm(self):
        model = small_model()
        kinds = [type(b) for b in model.blocks]
        assert kinds == [Dense, BatchNorm, ReLU, Dense, BatchNorm, ReLU, Dense]
        assert model.chain_sizes() == [(6, 8), (8, 8), (8, 3)]

    def test_block_layout_without_norm(self):
        model = small_model(norm="none", activation="leaky")
        kinds = [type(b) for b in model.blocks]
        assert kinds == [Dense, LeakyReLU, Dense, LeakyReLU, Dense]

    @pytest.mark.parametrize(
        "kw", [{}, dict(norm="psbn", alpha=0.1, hidden_layers=3), dict(norm="none", activation="leaky", hidden_layers=1)]
    )
    def test_blocks_lists_each_built_layer_and_its_saved_arrays(self, kw):
        model = small_model(**kw)
        built = [(type(b), {name: getattr(b, name).shape for name in b.arrays}) for b in model.blocks]
        assert built == model.arch.blocks()

    def test_gamma_and_alpha_reach_layers(self):
        model = small_model(norm="psbn", alpha=0.2, gamma_init=0.5)
        for layer in model.norms:
            assert np.all(layer.gamma == 0.5)
            assert layer.alpha == 0.2

    @pytest.mark.parametrize(
        "kw",
        [
            dict(norm="layernorm"),
            dict(activation="gelu"),
            dict(norm="psbn", alpha=0.0),
            dict(norm="bn", alpha=0.1),
            dict(hidden_layers=0),
            dict(hidden_width=0),
            dict(gamma_init=0.0),
            dict(gamma_init=float("nan")),
        ],
    )
    def test_build_rejects(self, kw):
        with pytest.raises(ConfigError):
            small_model(**kw)


class TestStructureAccessors:
    def test_block_lists_hold_each_kind_in_order(self):
        model = small_model()
        assert model.dense == model.blocks[0::3]
        assert model.norms == model.blocks[1::3]  # norms[k] normalizes boundary k
        assert model.acts == model.blocks[2::3]
        plain = small_model(norm="none")
        assert (plain.dense, plain.norms, plain.acts) == (plain.blocks[0::2], [], plain.blocks[1::2])

    def test_unit_scales_bn(self):
        model = small_model()
        model.norms[1].gamma[:] = [-2, 1, 0, 1, 1, 1, 1, 1]
        scales = model.unit_scales()
        assert set(scales) == {0, 1}
        assert np.array_equal(scales[1], [2, 1, 0, 1, 1, 1, 1, 1])

    def test_unit_scales_none_is_incoming_l1(self):
        model = small_model(norm="none")
        scales = model.unit_scales()
        assert set(scales) == {0, 1}
        for k in (0, 1):
            assert np.array_equal(scales[k], np.sum(np.abs(model.dense[k].w), axis=0))

    def test_state_arrays_keys(self):
        keys = set(small_model().state_arrays())
        assert keys == {
            "b0.w", "b0.b", "b3.w", "b3.b", "b6.w", "b6.b",
            "b1.gamma", "b1.beta", "b1.running_mean", "b1.running_var",
            "b4.gamma", "b4.beta", "b4.running_mean", "b4.running_var",
        }


def layer_arrays(model: MLP) -> list[tuple[np.ndarray, np.ndarray]]:
    """(value, gradient) for every trainable array held by the layers."""
    out = []
    for block in model.blocks:
        if isinstance(block, Dense):
            out += [(block.w, block.gw), (block.b, block.gb)]
        elif isinstance(block, BatchNorm):
            out += [(block.gamma, block.ggamma), (block.beta, block.gbeta)]
    return out


def assert_bound(model: MLP) -> None:
    """Every layer array is a view into the flat store, and together the
    views tile the store exactly: no overlap, no gap."""
    pairs = layer_arrays(model)
    for store, arrays in ((model.params, [v for v, _ in pairs]), (model.grads, [g for _, g in pairs])):
        assert store.ndim == 1 and store.flags.c_contiguous
        assert all(np.shares_memory(arr, store) for arr in arrays)
        keep = store.copy()
        store[:] = np.arange(store.size)
        assert np.array_equal(np.sort(np.concatenate([a.ravel() for a in arrays])), np.arange(store.size))
        store[:] = keep


class TestFlatStore:
    @pytest.mark.parametrize("norm", ["bn", "psbn", "none"])
    def test_build_binds(self, norm):
        assert_bound(small_model(norm, **({"alpha": 0.1} if norm == "psbn" else {})))

    @pytest.mark.parametrize("norm", ["bn", "none"])
    def test_only_dense_and_norm_layers_hold_parameters(self, norm):
        dense = 6 * 8 + 8 + 8 * 8 + 8 + 8 * 3 + 3
        gamma_beta = 0 if norm == "none" else 2 * (8 + 8)
        assert small_model(norm).params.size == dense + gamma_beta

    def test_deepcopy_binds_a_new_store(self):
        model = small_model()
        model.loss_and_grad(np.random.default_rng(1).standard_normal((5, 6)), np.array([0, 1, 2, 0, 1]))
        clone = copy.deepcopy(model)
        assert_bound(clone)
        assert not np.shares_memory(clone.params, model.params)
        assert np.array_equal(clone.params, model.params)
        assert np.array_equal(clone.grads, model.grads)

    @pytest.mark.parametrize("norm", ["bn", "psbn", "none"])
    def test_pickle_binds_a_new_store(self, norm):
        model = small_model(norm, **({"alpha": 0.1} if norm == "psbn" else {}))
        model.loss_and_grad(np.random.default_rng(1).standard_normal((5, 6)), np.array([0, 1, 2, 0, 1]))
        clone = pickle.loads(pickle.dumps(model))
        assert_bound(clone)
        for store, old in ((clone.params, model.params), (clone.grads, model.grads)):
            assert not np.shares_memory(store, old)
            assert np.array_equal(store, old)
        for value, grad in layer_arrays(clone):
            assert not np.shares_memory(value, model.params)
            assert not np.shares_memory(grad, model.grads)
        for key, arr in model.state_arrays().items():
            assert np.array_equal(clone.state_arrays()[key], arr), key

    def test_pruned_copy_binds(self):
        model = small_model()
        model.norms[0].gamma[:2] = 1e-9
        pruned, n = pruned_copy(model)
        assert n == 2
        assert_bound(pruned)
        assert not np.shares_memory(pruned.params, model.params)

    def test_loaded_model_binds_and_trains(self, tmp_path):
        cfg = TrainConfig(
            rounds=1, epochs_per_round=1, batch_size=16, hidden_width=8, hidden_layers=2,
            classes=3, dim=6, n_per_class=25, weight_decay=0.01,
        )
        path = tmp_path / "ck.json"
        save_checkpoint(path, small_model(), np.random.default_rng(0))
        loaded, rng, _ = load_checkpoint(path)
        assert_bound(loaded)
        before = [value.copy() for value, _ in layer_arrays(loaded)]
        train_round(loaded, dataset_for(cfg), cfg, 0, rng)
        assert_bound(loaded)
        for (value, _), old in zip(layer_arrays(loaded), before):
            assert not np.array_equal(value, old)


class TestEvalMode:
    def test_output_is_batch_size_independent(self):
        model = small_model()
        x = np.random.default_rng(1).standard_normal((10, 6))
        full = model.forward(x, "eval")
        assert np.allclose(model.forward(x[:3], "eval"), full[:3], rtol=1e-12, atol=1e-14)
        assert np.allclose(model.forward(x[7:], "eval"), full[7:], rtol=1e-12, atol=1e-14)


class TestPrunedCopy:
    def test_exactly_dead_unit_is_removable(self):
        model = small_model()
        bn = model.norms[0]
        bn.gamma[2] = 0.0
        bn.beta[2] = 0.0
        x = np.random.default_rng(2).standard_normal((5, 6))
        before = model.forward(x, "eval")
        pruned, n = pruned_copy(model)
        assert n == 1
        assert np.array_equal(pruned.forward(x, "eval"), before)
        # removal zeroes the unit's outgoing rows, original untouched
        assert not pruned.dense[1].w[2].any()
        assert model.dense[1].w[2].any()

    @pytest.mark.parametrize("norm", ["psbn", "none"])
    def test_constant_dead_unit_is_removable(self, norm):
        # the dead unit still emits relu(beta + alpha) = 0.75 (psbn) or
        # relu(b) = 0.5 (no norm); every value here is a small dyadic
        # rational, so the forward is exact and only a dropped constant
        # could move a bit
        model = small_model(norm, hidden_layers=1, **({"alpha": 0.25} if norm == "psbn" else {}))
        first, last = model.dense
        first.w[:] = np.arange(first.w.size).reshape(first.w.shape) % 5 - 2
        last.w[:] = (np.arange(last.w.size).reshape(last.w.shape) % 7 - 3) / 4
        if norm == "psbn":
            bn = model.norms[0]
            bn.eps = 0.0  # unit running variance then normalizes exactly
            bn.gamma[:] = 0.5
            bn.gamma[2] = 0.0
            bn.beta[2] = 0.5
        else:
            first.w[:, 2] = 0.0
            first.b[2] = 0.5
        x = np.arange(30.0).reshape(5, 6) % 4 - 1
        before = model.forward(x, "eval")
        pruned, n = pruned_copy(model)
        assert n == 1
        assert not pruned.dense[1].w[2].any()
        assert np.array_equal(pruned.forward(x, "eval"), before)

    def test_nothing_collapsed_nothing_changes(self):
        model = small_model()
        x = np.random.default_rng(3).standard_normal((4, 6))
        before = model.forward(x, "eval")
        pruned, n = pruned_copy(model)
        assert n == 0
        assert np.array_equal(pruned.forward(x, "eval"), before)

    def test_counts_all_boundaries(self):
        model = small_model()
        for layer in model.norms:
            layer.gamma[:2] = 1e-9
        _, n = pruned_copy(model)
        assert n == 4


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        model = small_model(norm="psbn", alpha=0.1)
        rng = np.random.default_rng(5)
        model.loss_and_grad(rng.standard_normal((6, 6)), rng.integers(0, 3, 6))
        path = tmp_path / "ck.json"
        save_checkpoint(path, model, rng, extra={"round": 2})
        loaded, rng2, extra = load_checkpoint(path)
        assert loaded.arch == model.arch
        assert extra == {"round": 2}
        for key, arr in model.state_arrays().items():
            assert np.array_equal(loaded.state_arrays()[key], arr), key
        assert np.array_equal(rng2.standard_normal(5), rng.standard_normal(5))

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: small_model(), id="bn-relu"),
            pytest.param(lambda: small_model(norm="psbn", alpha=0.1), id="psbn-relu"),
            pytest.param(lambda: small_model(norm="none", activation="leaky"), id="none-leaky"),
            pytest.param(
                lambda: MLP.build(
                    TrainConfig(hidden_width=8, hidden_layers=2, classes=3, dim=6, gamma_init=1).arch,
                    np.random.default_rng(0),
                ),
                id="config-int-gamma",
            ),
        ],
    )
    def test_save_load_save_keeps_bytes(self, tmp_path, build):
        model = build()
        rng = np.random.default_rng(5)
        model.loss_and_grad(rng.standard_normal((6, 6)), rng.integers(0, 3, 6))
        model.params -= 0.1 * model.grads
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_checkpoint(first, model, rng, extra={"round": 1})
        save_checkpoint(second, *load_checkpoint(first))
        assert second.read_bytes() == first.read_bytes()
        # alpha and gamma_init are written as floats, whatever number type built the model
        arch = json.loads(first.read_text())["arch"]
        assert type(arch["alpha"]) is float and type(arch["gamma_init"]) is float

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path):
        path = tmp_path / "ck.json"
        save_checkpoint(path, small_model(), np.random.default_rng(0))
        before = path.read_bytes()
        # the payload streams out until json.dump reaches the bad value
        with pytest.raises(TypeError):
            save_checkpoint(path, small_model(), np.random.default_rng(1), extra={"bad": object()})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ck.json"]
        load_checkpoint(path)

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "ck.json"
        save_checkpoint(path, small_model(), np.random.default_rng(0))
        payload = json.loads(path.read_text())
        payload["version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError):
            load_checkpoint(path)

    def test_rejects_missing_key(self, tmp_path):
        path = tmp_path / "ck.json"
        save_checkpoint(path, small_model(), np.random.default_rng(0))
        payload = json.loads(path.read_text())
        del payload["params"]["b0.w"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError):
            load_checkpoint(path)

    def test_rejects_shape_mismatch(self, tmp_path):
        path = tmp_path / "ck.json"
        save_checkpoint(path, small_model(), np.random.default_rng(0))
        payload = json.loads(path.read_text())
        payload["params"]["b0.b"]["shape"] = [4, 2]
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "corrupt, field",
        [
            pytest.param(lambda p: p["arch"].pop("activation"), "activation", id="arch-without-activation"),
            pytest.param(lambda p: p["arch"].update(depth=3), "depth", id="arch-with-extra-key"),
            pytest.param(lambda p: p.pop("params"), None, id="no-params"),
            pytest.param(lambda p: p["params"]["b0.b"]["data"].pop(), None, id="data-shorter-than-shape"),
            pytest.param(lambda p: p["params"]["b0.b"]["data"].__setitem__(0, None), None, id="null-in-data"),
            pytest.param(lambda p: p["params"]["b0.b"]["data"].__setitem__(0, float("nan")), None, id="nan-in-data"),
            pytest.param(lambda p: p["params"]["b0.b"]["data"].__setitem__(0, "0.5"), None, id="text-in-data"),
            pytest.param(lambda p: p["params"]["b0.b"].pop("data"), None, id="entry-without-data"),
            pytest.param(lambda p: p["params"]["b0.b"].pop("shape"), None, id="entry-without-shape"),
            pytest.param(lambda p: p["rng_state"].update(bit_generator="MT19937"), None, id="rng-state-not-pcg64"),
            pytest.param(lambda p: p.update(params=[]), None, id="params-not-an-object"),
            pytest.param(lambda p: p["arch"].update(in_dim=-1), "in_dim", id="arch-negative-in-dim"),
            pytest.param(lambda p: p["arch"].update(classes=0), "classes", id="arch-no-classes"),
            pytest.param(lambda p: p["arch"].update(hidden_width=8.5), "hidden_width", id="arch-fractional-width"),
            pytest.param(lambda p: p["arch"].update(hidden_width=True), "hidden_width", id="arch-boolean-width"),
            pytest.param(lambda p: p["arch"].update(norm="psbn", alpha="0.1"), "alpha", id="arch-text-alpha"),
            pytest.param(lambda p: p["arch"].update(gamma_init=None), "gamma_init", id="arch-null-gamma-init"),
            pytest.param(lambda p: p["arch"].update(hidden_width=3000), "b0.w", id="arch-wider-than-arrays"),
            pytest.param(lambda p: p["arch"].update(hidden_layers=3), "keys", id="arch-deeper-than-arrays"),
            pytest.param(lambda p: p["arch"].update(norm="none"), "keys", id="arch-without-norm-arrays-with"),
        ],
    )
    def test_malformed_input_builds_no_model(self, tmp_path, monkeypatch, corrupt, field):
        """A malformed checkpoint is a ConfigError, raised before any model is built; a bad arch value names its field."""
        path = tmp_path / "ck.json"
        save_checkpoint(path, small_model(activation="leaky"), np.random.default_rng(0))
        payload = json.loads(path.read_text())
        corrupt(payload)
        path.write_text(json.dumps(payload))
        built = []
        init = MLP.__init__

        def counting_init(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(MLP, "__init__", counting_init)
        with pytest.raises(ConfigError, match=field):
            load_checkpoint(path)
        assert built == []

    def test_mismatched_arch_allocates_no_model(self, tmp_path):
        """A small checkpoint whose arch claims a large model fails before that model is allocated."""
        path = tmp_path / "ck.json"
        save_checkpoint(path, small_model(), np.random.default_rng(0))
        payload = json.loads(path.read_text())
        payload["arch"]["hidden_width"] = 3000
        path.write_text(json.dumps(payload))
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=r"b0\.w: \(6, 8\) vs \(6, 3000\)"):
                load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_payload_not_an_object(self, tmp_path):
        path = tmp_path / "ck.json"
        save_checkpoint(path, small_model(), np.random.default_rng(0))
        path.write_text(json.dumps([json.loads(path.read_text())]))
        with pytest.raises(ConfigError, match="a checkpoint is a JSON object"):
            load_checkpoint(path)
