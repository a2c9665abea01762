"""Two-tower encoder: a patch-MLP image tower and a token-MLP text tower.

Image tower: non-overlapping patches are flattened, linearly projected to a
hidden width, pushed through L shared tanh layers per patch, mean-pooled
over patches, projected to the embedding dim and L2-normalized. The text
tower mirrors it: token embedding table, L tanh layers per token (with
optional dropout, the text tower's regularization trick), mean pooling over
tokens, output projection, L2 normalization.

The per-unit nonlinearity before pooling matters: pooling first would
average patch contents into a near-uniform blur and identities would become
indistinguishable. After the tanh stack, pooling sees a bag of nonlinear
patch/token descriptors, which is enough to separate attribute bundles.

Both towers run one hidden stack and one output head (`_tower_from`) and
one backward pass through them (`_tower_backward`), over one activation
cache (`TowerCache`). Each tower keeps only what differs and hands it in:
its input stage (patch projection, or embedding rows) with its gradient,
its pooling (mean over patches, or per caption) and unpooling, and its
chain of modules. A forward pass is a continuation (`image_from`,
`text_from`) that can start at any module of the chain, on the
activations an earlier pass cached below it. The contribution scorer
continues its probes this way; a full encode is the continuation from the
first module.

All gradients are hand-derived; `backward_image` / `backward_text` implement
the exact chain rule for the forward passes here, and the test suite holds
them against finite differences end to end.

Precision: the passes compute in the dtype of the parameters they are
given. Training gives them a float32 copy (`train.tower_copy`), so float32
starts where the images (uint8 in the corpus, float64 from the view
worker; `encode_image` reads either as `numerics.pixels` in the tower's
dtype), the embedding rows and the dropout masks enter a tower, and stops at
`l2_normalize_rows`, which returns float64 embeddings for the losses. On
the way back, the float64 gradient from `l2_normalize_rows_backward` is
cast to the tower's dtype, and the passes return parameter gradients in
that dtype; the embedding-table scatter alone runs in float64. Evaluation,
checkpoints and the finite-difference checks use the float64 parameters.

Freezing is tracked per module ("img.patch", "txt.hidden.2", ...). Frozen
modules still participate in the forward pass but receive zero updates.
Dropped text layers are skipped by the forward pass entirely and excluded
from the trainable-parameter count.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from .numerics import Rng, ShapeMismatch, l2_normalize_rows, l2_normalize_rows_backward, pixels
from .schema import load

CHECKPOINT_MAGIC = b"TTLAB001"
MAX_TEXT_TOKENS = 77  # the one truncation point for captions
UNK_ID = 0


class BadModule(KeyError):
    """A module name does not exist in this model."""


class BadLayerId(ValueError):
    """A hidden-layer index is outside the tower's range."""


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and regularization switches for both towers."""

    embed_dim: int = 32
    hidden_dim: int = 64
    image_layers: int = 3
    text_layers: int = 3
    patch_size: int = 8
    image_height: int = 48
    image_width: int = 24
    vocab: tuple = ()
    dropout: float = 0.0
    tau_init: float = 0.07
    dropped_text_layers: tuple = ()

    def __post_init__(self):
        if min(self.embed_dim, self.hidden_dim, self.image_layers, self.text_layers) < 1:
            raise ValueError("dims and layer counts must be >= 1")
        if self.image_height % self.patch_size or self.image_width % self.patch_size:
            raise ValueError(
                f"patch size {self.patch_size} must divide "
                f"{self.image_height}x{self.image_width}"
            )
        if not (0 <= self.dropout < 1):
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if not (0 < self.tau_init < np.inf):
            raise ValueError(f"tau_init must be finite and > 0, got {self.tau_init}")
        for i in self.dropped_text_layers:
            if not (0 <= i < self.text_layers):
                raise BadLayerId(f"dropped text layer {i} outside [0, {self.text_layers})")
        if len(set(self.dropped_text_layers)) != len(self.dropped_text_layers):
            raise ValueError(f"dropped_text_layers lists a layer twice: {list(self.dropped_text_layers)}")

    @property
    def patch_pixels(self) -> int:
        return self.patch_size * self.patch_size * 3

    @property
    def vocab_rows(self) -> int:
        return len(self.vocab) + 1  # row 0 is the unknown-token bucket


@dataclass
class Model:
    config: ModelConfig
    params: dict
    frozen: set = field(default_factory=set)

    _vocab_index: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self._vocab_index:
            self._vocab_index = {w: i + 1 for i, w in enumerate(self.config.vocab)}

    def token_ids(self, tokens) -> np.ndarray:
        return np.array([self._vocab_index.get(t, UNK_ID) for t in tokens], dtype=np.int64)

    @property
    def tau(self) -> float:
        return float(np.exp(self.params["log_tau"]))

    def module_names(self) -> list:
        seen = []
        for key in self.params:
            name = module_of(key)
            if name not in seen:
                seen.append(name)
        return seen

    def inert_modules(self) -> set:
        """Modules that never take an update: the frozen ones and the
        dropped text layers."""
        return self.frozen | {f"txt.hidden.{i}" for i in self.config.dropped_text_layers}

    def module_keys(self, name: str) -> list:
        keys = [k for k in self.params if module_of(k) == name]
        if not keys:
            raise BadModule(f"no module named '{name}'")
        return keys


def module_of(key: str) -> str:
    """Parameter key -> owning module name ('img.hidden.2.W' -> 'img.hidden.2')."""
    if key == "log_tau":
        return "log_tau"
    return key.rsplit(".", 1)[0]


def _uniform_init(rng: Rng, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def param_table(config: ModelConfig) -> dict:
    """Every tensor the config builds: key -> (shape, fan-in of its uniform
    initialization), in initialization order. `log_tau` has no fan-in; it
    starts at log(tau_init)."""
    h, d, ppc = config.hidden_dim, config.embed_dim, config.patch_pixels
    table = {"img.patch.W": ((ppc, h), ppc), "img.patch.b": ((h,), ppc)}
    for i in range(config.image_layers):
        table[f"img.hidden.{i}.W"] = ((h, h), h)
        table[f"img.hidden.{i}.b"] = ((h,), h)
    table["img.out.W"] = ((h, d), h)
    table["img.out.b"] = ((d,), h)
    # The embedding table maps one-hot tokens to h-dim rows; its rows are
    # scaled by the receiving width so token signals start at the same
    # magnitude as patch signals.
    table["txt.embed.W"] = ((config.vocab_rows, h), h)
    for i in range(config.text_layers):
        table[f"txt.hidden.{i}.W"] = ((h, h), h)
        table[f"txt.hidden.{i}.b"] = ((h,), h)
    table["txt.out.W"] = ((h, d), h)
    table["txt.out.b"] = ((d,), h)
    table["log_tau"] = ((), None)
    return table


def init_model(config: ModelConfig, rng: Rng) -> Model:
    """Fresh parameters, every tensor from its own named substream so the
    initialization of one tensor never shifts another's draws."""
    params = {}
    for key, (shape, fan_in) in param_table(config).items():
        if fan_in is None:
            params[key] = np.array(np.log(config.tau_init))
        else:
            params[key] = _uniform_init(rng.named(key), shape, fan_in)
    return Model(config=config, params=params)


def _tensor_set_problem(header, config: ModelConfig) -> str | None:
    """How the header's tensor index differs from the set `config` builds,
    if it does."""
    want = {k: shape for k, (shape, _) in param_table(config).items()}
    seen = set()
    for spec in header["tensors"]:
        key, shape = spec["key"], tuple(spec["shape"])
        if key in seen:
            return f"tensor '{key}' listed twice"
        seen.add(key)
        if key not in want:
            return f"unexpected tensor '{key}' (the model config does not build it)"
        if shape != want[key]:
            return f"tensor '{key}' has shape {shape}, the model config builds {want[key]}"
    missing = [k for k in want if k not in seen]
    if missing:
        return f"missing tensor '{missing[0]}'"
    return None


def parameter_count(model: Model, trainable_only: bool = False) -> int:
    """Total (or trainable) scalar parameter count. Inert modules (frozen
    ones and dropped text layers) are excluded when asked."""
    total = 0
    inert = model.inert_modules() if trainable_only else set()
    for key, value in model.params.items():
        if module_of(key) in inert:
            continue
        total += int(np.asarray(value).size)
    return total


def freeze(model: Model, modules) -> Model:
    """Mark modules as frozen (zero updates). Unknown names are rejected."""
    names = set(model.module_names())
    for m in modules:
        if m not in names:
            raise BadModule(f"no module named '{m}'; known: {sorted(names)}")
    model.frozen |= set(modules)
    return model


# ---------------------------------------------------------------------------
# forward / backward


@dataclass
class TowerCache:
    """Every activation of one tower pass, for continuations and backward."""

    inputs: np.ndarray  # patches (B, P, ppc), or the concatenated token ids (T,)
    lengths: np.ndarray | None = None  # tokens per caption (B,); text only
    first: np.ndarray | None = None  # the input stage's output
    # per hidden layer run: (module name, tanh output, mask or None, layer output)
    acts: list = field(default_factory=list)
    pooled: np.ndarray | None = None  # (B, h)
    raw_out: np.ndarray | None = None  # (B, d) before normalization


def image_chain(config: ModelConfig) -> list:
    """The image tower's modules in forward order; `image_from` starts at
    an index of this list."""
    return ["img.patch", *(f"img.hidden.{i}" for i in range(config.image_layers)), "img.out"]


def text_chain(config: ModelConfig) -> list:
    """The text tower's modules in forward order, dropped layers left out;
    `text_from` starts at an index of this list."""
    kept = (i for i in range(config.text_layers) if i not in config.dropped_text_layers)
    return ["txt.embed", *(f"txt.hidden.{i}" for i in kept), "txt.out"]


def _tower_from(
    model: Model, chain: list, cache: TowerCache, start: int, input_stage, pool, rate: float = 0.0, rng=None
) -> tuple:
    """Run the tower of modules `chain` from `chain[start]` on; returns
    (embeddings, cache). `input_stage` maps the inputs to the first
    activation, and `pool` the last one to a row per item.

    Below `start` the activations come from `cache` (start 0 needs only
    its inputs), so they must be what this model's lower modules compute
    there. Every layer then sees the input a full pass gives it, and the
    result is byte for byte that of a full encode."""
    p = model.params
    hidden, out = chain[1:-1], chain[-1]
    first = cache.first if start > 0 else input_stage(cache.inputs)
    acts = cache.acts[: max(start - 1, 0)]
    pooled = cache.pooled
    if start <= len(hidden):
        act = acts[-1][3] if acts else first
        for name in hidden[len(acts) :]:
            pre = np.tanh(act @ p[f"{name}.W"] + p[f"{name}.b"])
            mask = None
            act = pre
            if rate > 0:
                mask = ((rng.random(size=pre.shape) >= rate) / (1.0 - rate)).astype(pre.dtype, copy=False)
                act = pre * mask
            acts.append((name, pre, mask, act))
        pooled = pool(act)
    raw = pooled @ p[f"{out}.W"] + p[f"{out}.b"]
    z = l2_normalize_rows(raw)
    return z, TowerCache(cache.inputs, cache.lengths, first, acts, pooled, raw)


def _tower_backward(model: Model, chain: list, cache: TowerCache, grad_embed, grads: dict, unpool):
    """Accumulate the gradients of the output head and hidden layers of the
    tower of modules `chain` into `grads`; `unpool` spreads a pooled row's
    gradient back over its units. Returns the gradient at the first
    activation, or None when the pass stopped above it.

    The model's inert modules get no gradient, and the pass stops below
    the lowest module that does; the other gradients are unchanged."""
    p = model.params
    inert = model.inert_modules()
    out = chain[-1]
    g_raw = l2_normalize_rows_backward(cache.raw_out, grad_embed).astype(cache.raw_out.dtype, copy=False)

    if out not in inert:
        _acc(grads, f"{out}.W", cache.pooled.T @ g_raw)
        _acc(grads, f"{out}.b", g_raw.sum(axis=0))
    live = [m not in inert for m in chain[:-1]]
    if not any(live):
        return None
    lowest = live.index(True)  # index into `chain`: the hidden layer run at pos is pos + 1
    g_act = unpool(g_raw @ p[f"{out}.W"].T)
    for pos in reversed(range(len(cache.acts))):
        name, pre, mask, _ = cache.acts[pos]
        if mask is not None:
            g_act = g_act * mask
        g_z = g_act * (1.0 - pre * pre)
        if live[pos + 1]:
            # the layer's input is the output (after any mask) of the one below
            below = cache.acts[pos - 1][3] if pos > 0 else cache.first
            flat_in = below.reshape(-1, below.shape[-1])
            flat_gz = g_z.reshape(-1, g_z.shape[-1])
            _acc(grads, f"{name}.W", flat_in.T @ flat_gz)
            _acc(grads, f"{name}.b", flat_gz.sum(axis=0))
        if lowest == pos + 1:
            return None
        g_act = g_z @ p[f"{name}.W"].T
    return g_act


def image_from(model: Model, cache: TowerCache, start: int = 0) -> tuple:
    """Run the image tower from module `image_chain(config)[start]` on;
    returns (embeddings, cache), as `_tower_from` does."""
    p = model.params

    def project(patches):
        return patches @ p["img.patch.W"] + p["img.patch.b"]

    return _tower_from(model, image_chain(model.config), cache, start, project, lambda act: act.mean(axis=1))


def encode_image(model: Model, images) -> tuple:
    """Encode a (B, H, W, 3) stack, uint8 or float, as its `pixels` in the
    parameters' dtype; returns (embeddings, cache).

    Embeddings are row-normalized (B, embed_dim). The cache carries every
    intermediate needed by backward_image.
    """
    cfg = model.config
    images = np.asarray(images)
    expect = (cfg.image_height, cfg.image_width, 3)
    if images.ndim != 4 or images.shape[1:] != expect:
        raise ShapeMismatch(f"images must be (B, {expect[0]}, {expect[1]}, 3), got {images.shape}")
    # the input stage: flattened non-overlapping patches, (B, P, ppc)
    p = cfg.patch_size
    gh, gw = cfg.image_height // p, cfg.image_width // p
    x = images.reshape(len(images), gh, p, gw, p, 3)
    x = x.transpose(0, 1, 3, 2, 4, 5)  # (B, gh, gw, p, p, 3)
    # converted and gathered into patch order in one pass: one new array per call
    x = pixels(x, model.params["img.patch.W"].dtype)
    return image_from(model, TowerCache(x.reshape(len(images), gh * gw, p * p * 3)))


def backward_image(model: Model, cache: TowerCache, grad_embed: np.ndarray, grads: dict):
    """Accumulate parameter gradients for one encode_image call into
    `grads`; inert modules get none, as in `_tower_backward`."""
    patches = cache.inputs
    # mean pooling spreads the gradient evenly over the patches (broadcast)
    g_act = _tower_backward(
        model, image_chain(model.config), cache, grad_embed, grads, lambda g: g[:, None, :] / patches.shape[1]
    )
    if g_act is not None:
        flat_patches = patches.reshape(-1, patches.shape[-1])
        flat_g = g_act.reshape(-1, g_act.shape[-1])
        _acc(grads, "img.patch.W", flat_patches.T @ flat_g)
        _acc(grads, "img.patch.b", flat_g.sum(axis=0))


def text_from(
    model: Model, cache: TowerCache, start: int = 0, rate: float = 0.0, rng: Rng | None = None
) -> tuple:
    """Run the text tower from module `text_chain(config)[start]` on, with
    dropout `rate` on the layers it runs; returns (embeddings, cache), as
    `_tower_from` does."""
    lengths, embed = cache.lengths, model.params["txt.embed.W"]

    def caption_mean(act):
        starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
        return np.add.reduceat(act, starts, axis=0) / lengths[:, None].astype(act.dtype)

    chain = text_chain(model.config)
    return _tower_from(model, chain, cache, start, lambda ids: embed[ids], caption_mean, rate, rng)


def encode_text(model: Model, token_lists, train: bool = False, rng: Rng | None = None) -> tuple:
    """Encode a batch of token sequences; returns (embeddings, cache).

    Sequences are capped at MAX_TEXT_TOKENS tokens. In train mode with a
    nonzero dropout rate an Rng must be supplied; inverted dropout masks the
    tanh activations of each kept hidden layer.
    """
    rate = model.config.dropout if train else 0.0
    if rate > 0 and rng is None:
        raise ValueError("train-mode dropout needs an rng")
    # the input stage: token ids and per-caption lengths
    capped = [list(t)[:MAX_TEXT_TOKENS] for t in token_lists]
    lengths = np.array([len(t) for t in capped], dtype=np.int64)
    if (lengths == 0).any():
        raise ValueError("cannot encode an empty token sequence")
    ids = np.concatenate([model.token_ids(t) for t in capped])
    return text_from(model, TowerCache(ids, lengths), rate=rate, rng=rng)


def backward_text(model: Model, cache: TowerCache, grad_embed: np.ndarray, grads: dict):
    """Accumulate parameter gradients for one encode_text call into
    `grads`; inert modules get none, as in `_tower_backward`. Dropped
    layers are not in the cache, so they never get one."""
    lengths, rows = cache.lengths, model.params["txt.embed.W"].shape[0]
    g_rows = _tower_backward(
        model, text_chain(model.config), cache, grad_embed, grads,
        lambda g: np.repeat(g / lengths[:, None].astype(g.dtype), lengths, axis=0),
    )
    if g_rows is not None:
        _acc(grads, "txt.embed.W", embedding_scatter(cache.inputs, g_rows, rows))


def embedding_scatter(ids: np.ndarray, g_rows: np.ndarray, rows: int) -> np.ndarray:
    """The (rows, h) embedding-table gradient: each token's gradient row
    added into its id's row, in the dtype of `g_rows`. One `np.bincount`
    (it sums in float64) over the flat cell index adds every cell's terms
    in token order from zero, as `np.add.at` on a float64 table does, so
    the bytes are the same at a lower cost per call."""
    h = g_rows.shape[1]
    flat = (ids[:, None] * h + np.arange(h)).ravel()
    g_table = np.bincount(flat, weights=g_rows.astype(np.float64, copy=False).ravel(), minlength=rows * h)
    return g_table.reshape(rows, h).astype(g_rows.dtype, copy=False)


def _acc(grads: dict, key: str, value: np.ndarray):
    if key in grads:
        grads[key] = grads[key] + value
    else:
        grads[key] = value


# ---------------------------------------------------------------------------
# checkpoint io


def save_checkpoint(model: Model, path):
    """Versioned binary key->tensor map; bit-exact and byte-deterministic.

    Layout: magic, uint64 header length, a JSON header (version, config,
    frozen set, tensor index with shapes), then each tensor's raw float64
    little-endian bytes in header order. Keys are sorted so identical
    models always produce identical files.
    """
    keys = sorted(model.params)
    header = {
        "version": 1,
        "config": asdict(model.config),
        "frozen": sorted(model.frozen),
        "tensors": [{"key": k, "shape": list(model.params[k].shape)} for k in keys],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for k in keys:
            fh.write(np.ascontiguousarray(model.params[k], dtype="<f8").tobytes())


def _header_problem(header) -> str | None:
    """What is wrong with the structure of a parsed checkpoint header, if
    anything."""
    if not isinstance(header, dict):
        return "header is not a mapping"
    if "version" not in header:
        return "header has no 'version'"
    if header["version"] != 1:
        return f"unsupported version {header['version']!r}"
    for key, kind, name in (
        ("config", dict, "a mapping"),
        ("frozen", list, "a list"),
        ("tensors", list, "a list"),
    ):
        if key not in header:
            return f"header has no '{key}'"
        if not isinstance(header[key], kind):
            return f"header '{key}' is not {name}"
    if not all(isinstance(m, str) for m in header["frozen"]):
        return "header 'frozen' holds a non-string"
    for spec in header["tensors"]:
        ok = (
            isinstance(spec, dict)
            and isinstance(spec.get("key"), str)
            and isinstance(spec.get("shape"), list)
            and all(isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in spec["shape"])
        )
        if not ok:
            return f"bad tensor entry {spec!r} (want a string 'key' and a 'shape' list of sizes)"
    return None


def load_checkpoint(path) -> Model:
    """Read a file written by save_checkpoint. A file that is not one, is
    cut short anywhere, has a header of the wrong structure, lists a tensor
    set other than the one its config builds, freezes a module the model
    does not have, or carries bytes past its last tensor raises a
    ValueError naming the file and the problem. The parameters come back
    in `param_table` order, as `init_model` builds them."""
    with open(path, "rb") as fh:
        data = fh.read()
    pos = 0

    def take(n, what):
        nonlocal pos
        if n > len(data) - pos:
            raise ValueError(
                f"checkpoint {path}: cut short in {what} ({len(data) - pos} of {n} bytes)"
            )
        pos += n
        return data[pos - n : pos]

    magic = take(len(CHECKPOINT_MAGIC), "magic")
    if magic != CHECKPOINT_MAGIC:
        raise ValueError(f"checkpoint {path}: not a checkpoint file (magic {magic!r})")
    (hlen,) = struct.unpack("<Q", take(8, "header length"))
    blob = take(hlen, "header")
    try:
        header = json.loads(blob.decode("utf-8"))
    except ValueError as e:
        raise ValueError(f"checkpoint {path}: unreadable header ({e})") from None
    problem = _header_problem(header)
    if problem is not None:
        raise ValueError(f"checkpoint {path}: {problem}")
    try:
        config = load(ModelConfig, header["config"], "model")
    except (TypeError, ValueError) as e:
        raise ValueError(f"checkpoint {path}: bad model config ({e})") from None
    problem = _tensor_set_problem(header, config)
    if problem is not None:
        raise ValueError(f"checkpoint {path}: {problem}")
    read = {}
    for spec in header["tensors"]:
        shape = tuple(spec["shape"])
        count = int(np.prod(shape)) if shape else 1
        buf = take(8 * count, f"tensor '{spec['key']}'")
        read[spec["key"]] = np.frombuffer(buf, dtype="<f8").astype(np.float64).reshape(shape)
    if pos != len(data):
        raise ValueError(f"checkpoint {path}: {len(data) - pos} bytes past the last tensor")
    # the file stores keys sorted; the model holds them in initialization order
    params = {k: read[k] for k in param_table(config)}
    model = Model(config=config, params=params, frozen=set(header["frozen"]))
    unknown = sorted(model.frozen - set(model.module_names()))
    if unknown:
        raise ValueError(f"checkpoint {path}: frozen list names unknown module '{unknown[0]}'")
    return model


def clone_model(model: Model) -> Model:
    return Model(
        config=model.config,
        params={k: v.copy() for k, v in model.params.items()},
        frozen=set(model.frozen),
    )
