"""The segmented graph transformer.

Every node slot gets an initial embedding that sums four channels: raw
attributes (or the tag sinusoid when the dataset only has discrete
labels), a two-layer FC embedding of the node's adjacency row under
the graph's fixed artificial order, the degree sinusoid, and the WL
code sinusoid. A stack of post-norm transformer layers then attends
within each segment of k slots; dummy slots participate like real
ones. The graph representation is the mean of the real-node rows: one
grouped ``mean_rows`` op per batch sums each graph's own rows, so a
graph's pooled row has the same bits in any batch. It feeds a linear
softmax classifier. Two auxiliary heads support pre-training: a linear
reconstruction of the node attributes (built only when the dataset has
them) and a row-pair cosine recovery of the adjacency matrix.

Attention is executed in blocked form: all segments of a minibatch are
stacked into one (segments * k) x d_h matrix. One fused
``attention_block`` tape op runs the query, key and value projections,
the per-segment, per-head scores, softmax, dropout and value mixing in
a (segments, heads, k, d_head) layout, and the output projection. The
feed-forward block and the adjacency embedding are each one ``mlp`` op
(linear, GELU, linear), and each residual add with the norm after it
is one ``add_layer_norm`` op. So a layer records 5 ops (6 with the raw
residual), and the tape length per batch does not grow with the batch
size.

Inputs are prepared for the whole dataset in one pass: each graph is
unified, the slot arrays are joined into one dataset-wide slot -> node
array, and every channel is gathered through it once. Each distinct
integer code (degree, WL code, tag) is embedded by one sinusoid call,
and every graph's GraphInputs holds views of the dataset-wide arrays.
``prepare_graph`` runs the same pass over a one-graph list.

The adjacency channel is sparse from end to end: each graph's slot
rows are CSR arrays gathered from its own, a batch stacks them into one
set of CSR arrays, and ``adj_embed.fc1`` (and the raw residual, when
there are no attributes) multiplies them as one scipy CSR matrix,
built at the first product. Its cost is O(arcs), not O(slots x n_adj).
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass

import numpy as np

from .autodiff import RowGroups, Tape, Tensor
from .dataset import GraphDataset, GraphInstance
from .features import DEFAULT_WL_ITERATIONS, CsrRows, GraphFeatures, dataset_bundles, sinusoid_rows
from .unify import UnifyPlan, resolve_n_adj, unify

__all__ = [
    "RESIDUAL_MODES",
    "ModelConfig",
    "ModelParams",
    "GraphInputs",
    "BatchData",
    "config_for",
    "init_params",
    "prepare_graph",
    "prepare_dataset",
    "build_batch",
    "initial_embedding",
    "transformer_layer",
    "encode",
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
            if proj != "key":  # the softmax cancels a key bias
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
        # the raw rows: attributes, else adjacency
        weight("residual.weight", config.attr_dim or config.n_adj, d)
        bias("residual.bias", d)
    weight("classifier.weight", d, config.class_count)
    bias("classifier.bias", config.class_count)
    if config.attr_dim > 0:  # drawn last: its draws move no other tensor's bits
        weight("reconstruct.weight", d, config.attr_dim)
        bias("reconstruct.bias", config.attr_dim)
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

    Rows follow slot order (segments concatenated); a slot that is not
    real is a dummy. ``real_slots`` indexes the real rows sorted by
    original node id, which ``kept_nodes`` holds, so gathered
    representations come out in the graph's fixed node order. The row
    arrays are views of the arrays of the pass that prepared them, so
    treat them as read-only.
    """

    graph: GraphInstance
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
    """GraphInputs of one graph: the dataset pass over a one-graph list."""
    _check_plan(plan, config)
    return _prepare([g], [features], plan, config, [order])[0]


def prepare_dataset(dataset: GraphDataset, plan: UnifyPlan,
                    config: ModelConfig) -> list:
    """GraphInputs for every graph, with the shared WL dictionary."""
    _check_plan(plan, config)
    features = dataset_bundles(dataset, config.n_adj, config.wl_iterations)
    return _prepare(dataset.graphs, features, plan, config)


def _check_plan(plan: UnifyPlan, config: ModelConfig) -> None:
    """Segments are cut k slots long and attention blocks rows by segment_k."""
    if plan.k != config.segment_k:
        raise ValueError(f"plan k {plan.k} differs from config segment_k {config.segment_k}: "
                         "attention would cross segment boundaries")


def _check_features(graphs: list, features: list) -> None:
    """Every graph has nodes, and every feature array one row per node."""
    for i, (g, f) in enumerate(zip(graphs, features)):
        n = g.node_count
        if n == 0:
            raise ValueError(f"graph has no nodes (graph {i}): there is nothing to embed or pool")
        for name in ("degrees", "wl_codes", "tags", "attributes"):
            rows = getattr(f, name)
            if rows is not None and len(rows) != n:
                raise ValueError(f"graph {i}: {name} has {len(rows)} rows for {n} nodes")
        if f.adjacency.row_count != n:
            raise ValueError(f"graph {i}: adjacency has {f.adjacency.row_count} rows for {n} nodes")


def _prepare(graphs: list, features: list, plan: UnifyPlan, config: ModelConfig,
             orders: list | None = None) -> list:
    """One pass over every graph. The graphs' slots form one
    dataset-wide slot -> node array (node ids offset per graph, -1 at
    dummy slots); every row array is gathered through it once, and each
    GraphInputs holds views of the dataset-wide results."""
    _check_features(graphs, features)
    if not graphs:
        return []
    orders = orders or [None] * len(graphs)
    segments = [unify(g, plan, order=o) for g, o in zip(graphs, orders)]
    local = np.concatenate([s.node_ids for segs in segments for s in segs])
    slot_counts = [len(segs) * plan.k for segs in segments]
    slot_starts = [0, *itertools.accumulate(slot_counts)]
    node_starts = [0, *itertools.accumulate(g.node_count for g in graphs)]
    dummy = local < 0
    nodes = local + np.array(node_starts[:-1]).repeat(slot_counts)
    nodes[dummy] = -1

    # integer channels, each distinct value embedded once; a dummy slot
    # reads value 0 and gets no tag term, nor does a graph without tags
    channels = [[f.degrees for f in features], [f.wl_codes for f in features]]
    untagged = [f.tags is None for f in features]
    if config.attr_dim == 0 and config.use_tags and not all(untagged):
        channels.append([np.zeros(g.node_count, dtype=np.int64) if f.tags is None else f.tags
                         for g, f in zip(graphs, features)])
    values = np.concatenate([codes for channel in channels for codes in channel])
    values = values.reshape(len(channels), -1)[:, nodes]
    values[:, dummy] = 0
    distinct, inverse = np.unique(values, return_inverse=True)
    table, inverse = sinusoid_rows(distinct, config.hidden_dim), inverse.reshape(values.shape)
    const = table[inverse[0]]
    const += table[inverse[1]]
    if len(channels) == 3:
        no_tag = dummy
        if any(untagged):
            no_tag = dummy | np.array(untagged).repeat(slot_counts)
        tag_rows = table[inverse[2]]
        tag_rows[no_tag] = 0.0
        const += tag_rows

    adj = CsrRows.stack([f.adjacency for f in features]).take(nodes)
    attr = None
    if config.attr_dim > 0:
        attr = np.concatenate([np.zeros((g.node_count, config.attr_dim)) if f.attributes is None
                               else f.attributes for g, f in zip(graphs, features)])[nodes]
        attr[dummy] = 0.0

    # real slots sorted by dataset-wide node id, so by (graph, node)
    real = (~dummy).nonzero()[0]
    key = nodes[real]
    by_node = key.argsort(kind="stable")
    real_starts = key.searchsorted(node_starts, sorter=by_node).tolist()
    real = real[by_node]
    kept_nodes = local[real]

    adj_starts = adj.indptr[slot_starts].tolist()
    out = []
    for i, g in enumerate(graphs):
        s0, s1 = slot_starts[i], slot_starts[i + 1]
        r0, r1 = real_starts[i], real_starts[i + 1]
        a0, a1 = adj_starts[i], adj_starts[i + 1]
        adj_rows = CsrRows(adj.indptr[s0:s1 + 1] - a0, adj.indices[a0:a1], adj.width)
        out.append(GraphInputs(
            graph=g, const_rows=const[s0:s1], adj_rows=adj_rows,
            attr_rows=None if attr is None else attr[s0:s1], real_slots=real[r0:r1] - s0,
            kept_nodes=kept_nodes[r0:r1], label=g.label))
    return out


@dataclass
class BatchData:
    """Stacked slot rows of a batch. ``attr`` holds the node attributes
    (None without them), the rows that reconstruction decodes; the raw
    residual reads them, else the adjacency rows. ``real_slot_lists``
    holds each graph's real slots, checked once as the groups pooling
    averages."""

    const: np.ndarray
    adj: CsrRows
    attr: np.ndarray | None
    real_slot_lists: RowGroups
    labels_onehot: np.ndarray
    members: list


def build_batch(graph_inputs: list, class_count: int) -> BatchData:
    """Stack prepared graphs into one slot matrix plus bookkeeping."""
    if not graph_inputs:
        raise ValueError("empty batch")
    consts, attrs = [], []
    real_lists = []
    labels = np.zeros((len(graph_inputs), class_count))
    offset = 0
    for b, gi in enumerate(graph_inputs):
        consts.append(gi.const_rows)
        if gi.attr_rows is not None:
            attrs.append(gi.attr_rows)
        real_lists.append(gi.real_slots + offset)
        labels[b, gi.label] = 1.0
        offset += gi.slot_count
    adj = CsrRows.stack([gi.adj_rows for gi in graph_inputs])
    attr = np.concatenate(attrs, axis=0) if attrs else None
    return BatchData(
        const=np.concatenate(consts, axis=0),
        adj=adj,
        attr=attr,
        real_slot_lists=RowGroups(real_lists, offset),
        labels_onehot=labels,
        members=list(graph_inputs),
    )


# ----------------------------------------------------------------------
# forward passes


def initial_embedding(tape: Tape, params: ModelParams, config: ModelConfig,
                      batch: BatchData) -> Tensor:
    """Sum of the four per-slot channels as one (rows, d_h) tensor."""
    adj = tape.mlp(batch.adj.matrix, _pair(params, "adj_embed.fc1"),
                   _pair(params, "adj_embed.fc2"))
    channels = [tape.constant(batch.const), adj]
    if config.attr_dim > 0:
        channels.append(_linear(tape, params, "attr_embed", tape.constant(batch.attr)))
    return tape.add_n(channels)


def _pair(params: ModelParams, name: str) -> tuple:
    return params[f"{name}.weight"], params[f"{name}.bias"]


def _linear(tape: Tape, params: ModelParams, name: str, x) -> Tensor:
    return tape.linear(x, *_pair(params, name))


def _add_norm(tape: Tape, params: ModelParams, name: str, x: Tensor, y: Tensor) -> Tensor:
    return tape.add_layer_norm(x, y, params[f"{name}.gain"], params[f"{name}.bias"])


def transformer_layer(tape: Tape, params: ModelParams, config: ModelConfig,
                      h: Tensor, layer: int, training: bool,
                      res_term: Tensor | None = None) -> Tensor:
    """One post-norm layer over stacked segments of k slots."""
    prefix = f"layers.{layer}"
    attn = f"{prefix}.attn"
    attn_out = tape.attention_block(
        h, _pair(params, f"{attn}.query"), params[f"{attn}.key.weight"],
        _pair(params, f"{attn}.value"), _pair(params, f"{attn}.out"),
        config.head_count, config.segment_k, config.dropout_attention, training)
    h1 = _add_norm(tape, params, f"{prefix}.norm1", h, attn_out)

    ff = tape.mlp(h1, _pair(params, f"{prefix}.ffn.fc1"), _pair(params, f"{prefix}.ffn.fc2"))
    ff = tape.dropout(ff, config.dropout_hidden, training)
    h2 = _add_norm(tape, params, f"{prefix}.norm2", h1, ff)

    if res_term is not None:
        h2 = tape.add(h2, res_term)
    return h2


def encode(tape: Tape, params: ModelParams, config: ModelConfig,
           batch: BatchData, training: bool, start: tuple | None = None) -> Tensor:
    """Initial embedding plus the full layer stack; (rows, d_h).

    ``start=(layer, h)`` resumes the stack at ``layer`` with ``h`` as
    that layer's input (the embedding for 0, the encoder output for
    ``layer_count``): the embedding and the layers before ``layer`` do
    not run. The raw residual term is computed when any layer remains.
    """
    if start is None:
        first, h = 0, initial_embedding(tape, params, config, batch)
    else:
        first, h = start
    res_term = None
    if config.residual_mode == "raw" and first < config.layer_count:
        raw = batch.adj.matrix if batch.attr is None else batch.attr
        res_term = _linear(tape, params, "residual", raw)
    for l in range(first, config.layer_count):
        h = transformer_layer(tape, params, config, h, l, training, res_term)
    return h


def classify_batch(tape: Tape, params: ModelParams, config: ModelConfig,
                   batch: BatchData, training: bool):
    """Summed cross-entropy over the batch; returns (loss, logits)."""
    h = encode(tape, params, config, batch, training)
    z = tape.mean_rows(h, batch.real_slot_lists)
    logits = _linear(tape, params, "classifier", z)
    loss = tape.cross_entropy(logits, batch.labels_onehot)
    return loss, logits


def reconstruct_attributes(tape: Tape, params: ModelParams, h_final: Tensor) -> Tensor:
    """Linear head mapping node representations back to their attributes."""
    return _linear(tape, params, "reconstruct", h_final)


def recover_structure(tape: Tape, h_final: Tensor) -> Tensor:
    """Row-pair cosine similarity matrix of the node representations."""
    if h_final.value.shape[0] < 2:
        raise ValueError("structure recovery needs at least 2 node rows")
    return tape.cosine_rows(h_final)


def structure_target(gi: GraphInputs) -> np.ndarray:
    """The 0/1 adjacency matrix of the kept nodes, in kept-node order,
    read from the graph's arcs without its full n x n matrix."""
    g, kept = gi.graph, gi.kept_nodes
    position = np.full(g.node_count, -1, dtype=np.int64)
    position[kept] = np.arange(len(kept))
    rows, cols = position[g.arc_rows()], position[g.indices]
    inside = (rows >= 0) & (cols >= 0)
    out = np.zeros((len(kept), len(kept)))
    out[rows[inside], cols[inside]] = 1.0
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
