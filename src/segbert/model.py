"""The segmented graph transformer.

Every node slot gets an initial embedding that sums four channels: raw
attributes (or the tag sinusoid when the dataset only has discrete
labels), a two-layer FC embedding of the node's adjacency row under
the graph's fixed artificial order, the degree sinusoid, and the WL
code sinusoid. A stack of post-norm transformer layers then attends
within each segment of k slots; dummy slots participate like real
ones. The graph representation is the mean of the real-node rows, fed
to a linear softmax classifier. Two auxiliary heads support
pre-training: a linear reconstruction of the raw rows and a row-pair
cosine recovery of the connection-weight matrix.

Attention is executed in blocked form: all segments of a minibatch are
stacked into one (segments * k) x d_h matrix, and one fused
``multi_head_attention`` tape op runs the per-segment, per-head scores,
softmax, dropout and value mixing in a (segments, heads, k, d_head)
layout. Projections are fused ``linear`` ops and norms are
``affine_layer_norm`` ops, so a layer records 13 ops (14 with the raw
residual) and the tape length per batch does not grow with the batch
size.

The adjacency channel is sparse from end to end: each graph's slot
rows are CSR arrays gathered from its own, a batch stacks them into one
set of CSR arrays, and ``adj_embed.fc1`` (and the raw residual, when
the raw rows are the adjacency rows) multiplies them as one scipy CSR
matrix, built at the first product. Its cost is O(arcs), not
O(slots x n_adj).
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import Tape, Tensor
from .dataset import GraphDataset, GraphInstance
from .features import DEFAULT_WL_ITERATIONS, CsrRows, GraphFeatures, dataset_bundles, sinusoid_rows
from .unify import UnifyPlan, resolve_n_adj, unify

__all__ = [
    "RESIDUAL_MODES",
    "ModelConfig",
    "ModelParams",
    "GraphInputs",
    "BatchData",
    "GraphOutput",
    "config_for",
    "init_params",
    "prepare_graph",
    "prepare_dataset",
    "build_batch",
    "initial_embedding",
    "transformer_layer",
    "encode",
    "forward_graph",
    "classify_batch",
    "reconstruct_attributes",
    "recover_structure",
    "save_checkpoint",
    "load_checkpoint",
]


# ----------------------------------------------------------------------
# configuration

# graph residual modes, the first being the default: "raw" adds a linear
# map of each slot's raw row to every layer's input
RESIDUAL_MODES = ("none", "raw")


@dataclass(frozen=True)
class ModelConfig:
    hidden_dim: int = 32
    head_count: int = 2
    layer_count: int = 2
    intermediate_dim: int = 32
    dropout_hidden: float = 0.5
    dropout_attention: float = 0.3
    residual_mode: str = RESIDUAL_MODES[0]
    class_count: int = 2
    attr_dim: int = 0
    use_tags: bool = False
    n_adj: int = 1
    segment_k: int = 1
    wl_iterations: int = DEFAULT_WL_ITERATIONS

    def __post_init__(self):
        if self.hidden_dim <= 0 or self.hidden_dim % 2 != 0:
            raise ValueError(f"hidden_dim must be positive and even, got {self.hidden_dim}")
        if self.head_count <= 0 or self.hidden_dim % self.head_count != 0:
            raise ValueError(
                f"head_count {self.head_count} must divide hidden_dim {self.hidden_dim}")
        if self.layer_count < 1:
            raise ValueError(f"layer_count must be at least 1, got {self.layer_count}")
        if self.intermediate_dim <= 0:
            raise ValueError(f"intermediate_dim must be positive, got {self.intermediate_dim}")
        for name in ("dropout_hidden", "dropout_attention"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {rate}")
        if self.residual_mode not in RESIDUAL_MODES:
            raise ValueError(f"residual_mode must be in {RESIDUAL_MODES}, got {self.residual_mode!r}")
        if self.class_count < 2:
            raise ValueError(f"class_count must be at least 2, got {self.class_count}")
        if self.attr_dim < 0:
            raise ValueError(f"attr_dim must be non-negative, got {self.attr_dim}")
        if self.n_adj <= 0:
            raise ValueError(f"n_adj must be positive, got {self.n_adj}")
        if self.segment_k <= 0:
            raise ValueError(f"segment_k must be positive, got {self.segment_k}")
        if self.wl_iterations < 0:
            raise ValueError(f"wl_iterations must be non-negative, got {self.wl_iterations}")

    @property
    def raw_width(self) -> int:
        """Width of the raw per-node matrix: attributes, else adjacency."""
        return self.attr_dim if self.attr_dim > 0 else self.n_adj


def config_for(dataset: GraphDataset, plan: UnifyPlan, **overrides) -> ModelConfig:
    """Fill the dataset-derived fields of a ModelConfig."""
    base = dict(
        class_count=dataset.class_count,
        attr_dim=dataset.attr_dim,
        use_tags=dataset.tag_vocab_size > 0,
        n_adj=resolve_n_adj(dataset, plan),
        segment_k=plan.k,
    )
    base.update(overrides)
    return ModelConfig(**base)


# ----------------------------------------------------------------------
# parameters


class ModelParams:
    """Named parameter tensors in a stable order, held in two flat float64
    arenas: tensor i's ``value`` and ``grad`` are 2-D views of the slice
    ``offsets[i]:offsets[i + 1]`` of ``values`` and ``grads``. Never rebind them."""

    def __init__(self, shapes):
        """Zeroed arenas for a name -> (rows, cols) mapping."""
        self.offsets = offsets = [0, *itertools.accumulate(r * c for r, c in shapes.values())]
        self.values = np.zeros(offsets[-1])
        self.grads = np.zeros(offsets[-1])
        self._tensors: dict[str, Tensor] = {}
        for (name, shape), lo, hi in zip(shapes.items(), offsets, offsets[1:]):
            t = self._tensors[name] = Tensor(self.values[lo:hi].reshape(shape), True, name)
            t.grad = self.grads[lo:hi].reshape(shape)

    @classmethod
    def from_arrays(cls, arrays) -> "ModelParams":
        """Arenas holding a copy of a name -> 2-D array mapping."""
        params = cls({name: a.shape for name, a in arrays.items()})
        np.concatenate(list(arrays.values()), axis=None, out=params.values)
        return params

    def __reduce__(self):
        # unpickling (in worker processes) rebuilds the arenas and views
        return ModelParams.from_arrays, ({name: t.value for name, t in self.items()},)

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def names(self) -> list:
        return list(self._tensors)

    def items(self):
        return self._tensors.items()

    def zero_grads(self) -> None:
        self.grads.fill(0.0)

    def copy(self) -> "ModelParams":
        return ModelParams.from_arrays({name: t.value for name, t in self.items()})


def _trunc_normal(rng: np.random.Generator, target: np.ndarray, std: float = 0.02,
                  bound: float = 2.0) -> None:
    out = rng.standard_normal(target.shape)
    bad = np.abs(out) > bound
    count = np.count_nonzero(bad)
    while count:
        out[bad] = rng.standard_normal(count)
        bad = np.abs(out) > bound
        count = np.count_nonzero(bad)
    np.multiply(out, std, out=target)


def init_params(config: ModelConfig, seed: int = 0) -> ModelParams:
    """Truncated-normal weights (std 0.02, cut at two sigma), zero
    biases, unit layer-norm gains."""
    d = config.hidden_dim
    shapes, fills = {}, {}  # name -> (rows, cols); name -> constant, unless drawn

    def weight(name, rows, cols):
        shapes[name] = (rows, cols)

    def bias(name, cols, value=0.0):
        shapes[name], fills[name] = (1, cols), value

    weight("adj_embed.fc1.weight", config.n_adj, d)
    bias("adj_embed.fc1.bias", d)
    weight("adj_embed.fc2.weight", d, d)
    bias("adj_embed.fc2.bias", d)
    if config.attr_dim > 0:
        weight("attr_embed.weight", config.attr_dim, d)
        bias("attr_embed.bias", d)
    for l in range(config.layer_count):
        for proj in ("query", "key", "value", "out"):
            weight(f"layers.{l}.attn.{proj}.weight", d, d)
            bias(f"layers.{l}.attn.{proj}.bias", d)
        bias(f"layers.{l}.norm1.gain", d, 1.0)
        bias(f"layers.{l}.norm1.bias", d)
        weight(f"layers.{l}.ffn.fc1.weight", d, config.intermediate_dim)
        bias(f"layers.{l}.ffn.fc1.bias", config.intermediate_dim)
        weight(f"layers.{l}.ffn.fc2.weight", config.intermediate_dim, d)
        bias(f"layers.{l}.ffn.fc2.bias", d)
        bias(f"layers.{l}.norm2.gain", d, 1.0)
        bias(f"layers.{l}.norm2.bias", d)
    if config.residual_mode == "raw":
        weight("residual.weight", config.raw_width, d)
        bias("residual.bias", d)
    weight("classifier.weight", d, config.class_count)
    bias("classifier.bias", config.class_count)
    weight("reconstruct.weight", d, config.raw_width)
    bias("reconstruct.bias", config.raw_width)
    # the arenas start at zero; weights are drawn in parameter order
    params = ModelParams(shapes)
    rng = np.random.default_rng(seed)
    for name, t in params.items():
        if name not in fills:
            _trunc_normal(rng, t.value)
        elif fills[name]:
            t.value.fill(fills[name])
    return params


# ----------------------------------------------------------------------
# prepared inputs


@dataclass
class GraphInputs:
    """Per-graph constant arrays, ready to stack into batches.

    Rows follow slot order (segments concatenated); ``slot_nodes`` gives
    each slot's original node index, -1 at dummy slots. ``real_slots``
    indexes the real rows sorted by original node id, so gathered
    representations come out in the graph's fixed node order.
    """

    graph: GraphInstance
    slot_nodes: np.ndarray
    const_rows: np.ndarray
    adj_rows: CsrRows
    attr_rows: np.ndarray | None
    real_slots: np.ndarray
    kept_nodes: np.ndarray
    label: int

    @property
    def slot_count(self) -> int:
        return self.const_rows.shape[0]


def prepare_graph(g: GraphInstance, features: GraphFeatures, plan: UnifyPlan,
                  config: ModelConfig, order=None) -> GraphInputs:
    if g.node_count == 0:
        raise ValueError("graph has no nodes: there is nothing to embed or pool")
    slot_node = np.concatenate([s.node_ids for s in unify(g, plan, order=order)])
    dummy = slot_node < 0
    d = config.hidden_dim

    codes = [features.degrees, features.wl_codes]
    if config.attr_dim == 0 and config.use_tags and features.tags is not None:
        codes.append(features.tags)
    # one sinusoid call embeds every integer channel
    values = np.stack(codes)[:, slot_node].astype(np.float64)
    values[:, dummy] = 0.0
    sinusoids = sinusoid_rows(values.reshape(-1), d).reshape(len(codes), -1, d)
    const = sinusoids[0] + sinusoids[1]
    if len(codes) == 3:  # tags: no tag term at dummy slots
        sinusoids[2][dummy] = 0.0
        const += sinusoids[2]
    adj = features.adjacency.take(slot_node)
    attr = None
    if config.attr_dim > 0:
        if features.attributes is None:
            attr = np.zeros((len(slot_node), config.attr_dim))
        else:
            attr = features.attributes[slot_node]
            attr[dummy] = 0.0

    real = np.flatnonzero(~dummy)
    by_node = np.argsort(slot_node[real], kind="stable")
    real = real[by_node]
    return GraphInputs(graph=g, slot_nodes=slot_node, const_rows=const, adj_rows=adj,
                       attr_rows=attr, real_slots=real, kept_nodes=slot_node[real],
                       label=g.label)


def prepare_dataset(dataset: GraphDataset, plan: UnifyPlan,
                    config: ModelConfig) -> list:
    """GraphInputs for every graph, with the shared WL dictionary."""
    features = dataset_bundles(dataset, config.n_adj, config.wl_iterations)
    return [
        prepare_graph(g, f, plan, config)
        for g, f in zip(dataset.graphs, features)
    ]


@dataclass
class BatchData:
    """Stacked slot rows of a batch. ``raw`` is ``attr`` when there are
    attributes and ``adj`` otherwise."""

    const: np.ndarray
    adj: CsrRows
    attr: np.ndarray | None
    raw: np.ndarray | CsrRows
    real_slot_lists: list
    avg_matrix: np.ndarray
    labels_onehot: np.ndarray
    members: list

    def raw_rows(self, slots) -> np.ndarray:
        """Dense raw rows at the given slots (a reconstruction target)."""
        if isinstance(self.raw, CsrRows):
            return self.raw.take(slots).toarray()
        return self.raw[slots]


def build_batch(graph_inputs: list, class_count: int) -> BatchData:
    """Stack prepared graphs into one slot matrix plus bookkeeping."""
    if not graph_inputs:
        raise ValueError("empty batch")
    consts, attrs = [], []
    real_lists = []
    offset = 0
    for gi in graph_inputs:
        consts.append(gi.const_rows)
        if gi.attr_rows is not None:
            attrs.append(gi.attr_rows)
        real_lists.append(gi.real_slots + offset)
        offset += gi.slot_count
    total = offset
    avg = np.zeros((len(graph_inputs), total))
    labels = np.zeros((len(graph_inputs), class_count))
    for b, (gi, slots) in enumerate(zip(graph_inputs, real_lists)):
        avg[b, slots] = 1.0 / len(slots)
        labels[b, gi.label] = 1.0
    adj = CsrRows.stack([gi.adj_rows for gi in graph_inputs])
    attr = np.concatenate(attrs, axis=0) if attrs else None
    return BatchData(
        const=np.concatenate(consts, axis=0),
        adj=adj,
        attr=attr,
        raw=adj if attr is None else attr,
        real_slot_lists=real_lists,
        avg_matrix=avg,
        labels_onehot=labels,
        members=list(graph_inputs),
    )


# ----------------------------------------------------------------------
# forward passes


def initial_embedding(tape: Tape, params: ModelParams, config: ModelConfig,
                      batch: BatchData) -> Tensor:
    """Sum of the four per-slot channels as one (rows, d_h) tensor."""
    hidden = tape.gelu(_linear(tape, params, "adj_embed.fc1", batch.adj.matrix))
    channels = [tape.constant(batch.const), _linear(tape, params, "adj_embed.fc2", hidden)]
    if config.attr_dim > 0:
        channels.append(_linear(tape, params, "attr_embed", tape.constant(batch.attr)))
    return tape.add_n(channels)


def _linear(tape: Tape, params: ModelParams, name: str, x) -> Tensor:
    return tape.linear(x, params[f"{name}.weight"], params[f"{name}.bias"])


def _affine_norm(tape: Tape, params: ModelParams, name: str, x: Tensor) -> Tensor:
    return tape.affine_layer_norm(x, params[f"{name}.gain"], params[f"{name}.bias"])


def transformer_layer(tape: Tape, params: ModelParams, config: ModelConfig,
                      h: Tensor, layer: int, training: bool,
                      res_term: Tensor | None = None) -> Tensor:
    """One post-norm layer over stacked segments of k slots."""
    prefix = f"layers.{layer}"
    q, key, v = (_linear(tape, params, f"{prefix}.attn.{kind}", h)
                 for kind in ("query", "key", "value"))
    ctx = tape.multi_head_attention(q, key, v, config.head_count, config.segment_k,
                                    config.dropout_attention, training)
    attn_out = _linear(tape, params, f"{prefix}.attn.out", ctx)
    h1 = _affine_norm(tape, params, f"{prefix}.norm1", tape.add(h, attn_out))

    ff = tape.gelu(_linear(tape, params, f"{prefix}.ffn.fc1", h1))
    ff = tape.dropout(_linear(tape, params, f"{prefix}.ffn.fc2", ff),
                      config.dropout_hidden, training)
    h2 = _affine_norm(tape, params, f"{prefix}.norm2", tape.add(h1, ff))

    if res_term is not None:
        h2 = tape.add(h2, res_term)
    return h2


def encode(tape: Tape, params: ModelParams, config: ModelConfig,
           batch: BatchData, training: bool) -> Tensor:
    """Initial embedding plus the full layer stack; (rows, d_h)."""
    h = initial_embedding(tape, params, config, batch)
    res_term = None
    if config.residual_mode == "raw":
        raw = batch.raw.matrix if isinstance(batch.raw, CsrRows) else batch.raw
        res_term = _linear(tape, params, "residual", raw)
    for l in range(config.layer_count):
        h = transformer_layer(tape, params, config, h, l, training, res_term)
    return h


@dataclass
class GraphOutput:
    h_final: Tensor
    z: Tensor
    y_hat: Tensor


def forward_graph(params: ModelParams, config: ModelConfig, gi: GraphInputs,
                  training: bool = False, tape: Tape | None = None) -> GraphOutput:
    """Reference single-graph forward pass.

    h_final holds one row per kept node, ordered by original node id;
    z is their mean; y_hat the softmax class distribution.
    """
    tape = tape or Tape()
    batch = build_batch([gi], config.class_count)
    h = encode(tape, params, config, batch, training)
    h_final = tape.take_rows(h, batch.real_slot_lists[0])
    z = tape.mean_rows(h_final)
    logits = _linear(tape, params, "classifier", z)
    y_hat = tape.softmax_rows(logits)
    return GraphOutput(h_final=h_final, z=z, y_hat=y_hat)


def classify_batch(tape: Tape, params: ModelParams, config: ModelConfig,
                   batch: BatchData, training: bool):
    """Summed cross-entropy over the batch; returns (loss, logits)."""
    h = encode(tape, params, config, batch, training)
    z = tape.matmul(tape.constant(batch.avg_matrix), h)
    logits = _linear(tape, params, "classifier", z)
    loss = tape.cross_entropy(logits, batch.labels_onehot)
    return loss, logits


def reconstruct_attributes(tape: Tape, params: ModelParams, h_final: Tensor) -> Tensor:
    """Linear head mapping node representations back to raw rows."""
    return _linear(tape, params, "reconstruct", h_final)


def recover_structure(tape: Tape, h_final: Tensor) -> Tensor:
    """Row-pair cosine similarity matrix of the node representations."""
    if h_final.value.shape[0] < 2:
        raise ValueError("structure recovery needs at least 2 node rows")
    return tape.cosine_rows(h_final)


def structure_target(gi: GraphInputs) -> np.ndarray:
    """Connection weights between the kept nodes, in kept-node order,
    read from the graph's arcs without its full n x n matrix."""
    g, kept = gi.graph, gi.kept_nodes
    position = np.full(g.node_count, -1, dtype=np.int64)
    position[kept] = np.arange(len(kept))
    rows, cols = position[g.arc_rows()], position[g.indices]
    inside = (rows >= 0) & (cols >= 0)
    out = np.zeros((len(kept), len(kept)))
    out[rows[inside], cols[inside]] = g.weights[inside]
    return out


# ----------------------------------------------------------------------
# checkpoints

_MAGIC = b"SGBT"
_VERSION = 1


def save_checkpoint(params: ModelParams, path: str) -> None:
    """Flat binary container: names, shape headers, float64 LE data."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(params.names())))
        for name, t in params.items():
            encoded = name.encode("utf-8")
            rows, cols = t.value.shape
            fh.write(struct.pack("<III", len(encoded), rows, cols))
            fh.write(encoded)
            fh.write(t.value.astype("<f8").tobytes())


def load_checkpoint(path: str) -> ModelParams:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC:
        raise ValueError(f"{path}: not a model checkpoint (bad magic)")
    if len(blob) < 12:
        raise ValueError(f"{path}: truncated checkpoint header")
    version, count = struct.unpack_from("<II", blob, 4)
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    if count == 0:
        raise ValueError(f"{path}: checkpoint holds no tensors")
    offset = 12
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        if offset + 12 > len(blob):
            raise ValueError(f"{path}: truncated checkpoint header")
        name_len, rows, cols = struct.unpack_from("<III", blob, offset)
        offset += 12
        name = blob[offset:offset + name_len].decode("utf-8")
        offset += name_len
        if name in arrays:
            raise ValueError(f"{path}: tensor {name!r} appears twice")
        nbytes = rows * cols * 8
        if offset + nbytes > len(blob):
            raise ValueError(f"{path}: truncated tensor data for {name!r}")
        arrays[name] = np.frombuffer(blob[offset:offset + nbytes], dtype="<f8").reshape(rows, cols)
        offset += nbytes
    if offset != len(blob):
        raise ValueError(f"{path}: trailing bytes after checkpoint payload")
    return ModelParams.from_arrays(arrays)
