"""Learnable feature-tuning parameters and the transform applied to text features.

The model maps each pre-trained text feature c to a tuned feature c' with a
per-distribution (positive / negative) affine transform whose parameters are
optionally modulated per image by a small meta-network. At a fresh
initialization the transform is the identity for every mode, so tuned scoring
coincides with zero-shot scoring.
"""

import json
import math
import struct
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import DimMismatch, FormatError, InvalidDim, NonFiniteInput
from .numerics import MAX_ELEMS, as_f64, check_unit_rows, philox, scale_to_unit

MODES = ("const_shift", "vec_shift", "scale_shift", "mlp")
# modes whose tuned bank does not depend on the image feature
IMAGE_INDEPENDENT_MODES = ("const_shift", "mlp")
ROLES = ("positive", "negative")

CHECKPOINT_MAGIC = b"NFTC"
CHECKPOINT_VERSION = 2  # v1 files are still read


@dataclass
class FeatureBank:
    """Immutable matrix of unit-norm text features: N positive rows then M negative."""

    matrix: np.ndarray  # (N + M, D), read-only
    n_pos: int

    @classmethod
    def from_rows(cls, pos, neg):
        pos = as_f64(np.atleast_2d(pos))
        neg = as_f64(np.atleast_2d(neg)) if np.size(neg) else np.zeros((0, pos.shape[1]))
        if neg.ndim != 2 or neg.shape[1] != pos.shape[1]:
            raise DimMismatch(f"negative rows of shape {neg.shape} do not have the "
                              f"positive rows' width {pos.shape[1]}")
        if pos.shape[0] < 1:
            raise InvalidDim("bank needs at least one positive label row")
        matrix = np.concatenate([pos, neg])
        check_unit_rows(scale_to_unit(matrix), "label bank")
        matrix.flags.writeable = False
        return cls(matrix=matrix, n_pos=pos.shape[0])

    @property
    def dim(self):
        return self.matrix.shape[1]

    @property
    def n_neg(self):
        return self.matrix.shape[0] - self.n_pos

    @property
    def pos(self):
        return self.matrix[: self.n_pos]

    @property
    def neg(self):
        return self.matrix[self.n_pos :]

    def rows(self):
        """The (N + M, D) bank itself, not a copy."""
        return self.matrix

    @cached_property
    def squares(self):
        """Read-only c * c of every row, built on first use: by `scale_shift` training only."""
        sq = self.matrix * self.matrix
        sq.flags.writeable = False
        return sq

    @cached_property
    def unit(self):
        """Whether every row's c . c is within 1e-12 of 1, as `vec_shift` training takes it."""
        return bool((np.abs(np.einsum("ij,ij->i", self.matrix, self.matrix) - 1.0) <= 1e-12).all())


@dataclass
class TrainingSet:
    """Positive samples (feature, class index) and negative samples (feature only).

    A training batch is one too; `objectives.Batch` names this class.
    """

    pos_features: np.ndarray  # (n_p, D)
    pos_labels: np.ndarray  # (n_p,) int class indices
    neg_features: np.ndarray  # (n_n, D)

    @property
    def n_pos(self):
        return self.pos_features.shape[0]

    @property
    def n_neg(self):
        return self.neg_features.shape[0]


# The live arrays of each mode, per role: (name, shape in the dims D and H,
# identity value). Every array starts at its identity value, so every mode
# starts as the identity transform, except the trunk (w1, b1), which has none:
# it starts uniform in +-1/sqrt(D), behind zero heads. Weight decay pulls an
# array toward its identity value, the trunk toward 0.
MODE_PARAMS = {
    "const_shift": (("head.beta", (1,), 0.0),),
    "vec_shift": (("head.beta", ("D",), 0.0),
                  ("net.w1", ("H", "D"), None), ("net.b1", ("H",), None),
                  ("net.w_beta", ("D", "H"), 0.0), ("net.b_beta", ("D",), 0.0)),
    "scale_shift": (("head.alpha", ("D",), 1.0), ("head.beta", ("D",), 0.0),
                    ("net.w1", ("H", "D"), None), ("net.b1", ("H",), None),
                    ("net.w_alpha", ("D", "H"), 0.0), ("net.b_alpha", ("D",), 0.0),
                    ("net.w_beta", ("D", "H"), 0.0), ("net.b_beta", ("D",), 0.0)),
    "mlp": (("net.w1", ("H", "D"), None), ("net.b1", ("H",), None),
            ("net.w_beta", ("D", "H"), 0.0), ("net.b_beta", ("D",), 0.0)),
}


def param_layout(mode, dim, hidden):
    """(key, shape, identity value) of each live array of a mode, in checkpoint order.

    Keys are paths such as `pos_head.beta` or `neg_net.w1`. Heads come before
    nets and positive before negative.
    """
    size = {"D": int(dim), "H": int(hidden)}
    return [(f"{prefix}_{name}", tuple(size.get(n, n) for n in shape), ident)
            for group in ("head", "net") for prefix in ("pos", "neg")
            for name, shape, ident in MODE_PARAMS[mode] if name.startswith(group)]


# each mode's (field, key) pairs per role, such as ("beta", "pos_head.beta")
_ROLE_KEYS = {(mode, role): [(name.split(".")[1], f"{prefix}_{name}") for name, _, _ in params]
              for mode, params in MODE_PARAMS.items()
              for role, prefix in zip(ROLES, ("pos", "neg"))}


def role_arrays(arrays, mode, role):
    """One role's arrays of a mode's dict keyed like params(), parameters or gradients, by
    field name: those of beta, alpha, w1, b1, w_beta, b_beta, w_alpha, b_alpha the mode has."""
    return {name: arrays[key] for name, key in _ROLE_KEYS[mode, role]}


def v1_layout(dim, hidden):
    """Checkpoint v1 stored every mode with scale_shift's 16 arrays."""
    return param_layout("scale_shift", dim, hidden)


def live_from_v1(mode, dim, hidden, v1_arrays):
    """A mode's live arrays cut from arrays of the v1 layout (const_shift: beta[:1])."""
    return {key: v1_arrays[key][tuple(slice(n) for n in shape)]
            for key, shape, _ in param_layout(mode, dim, hidden)}


def flat_arrays(arrays, flat=None):
    """Consecutive views, shaped like the arrays of a dict in its order, of flat if given,
    else of one new float64 buffer of their copies, which AdamW updates in one pass."""
    if flat is None:
        flat = np.concatenate([a.ravel() for a in arrays.values()]).astype(np.float64, copy=False)
    ends = np.cumsum([a.size for a in arrays.values()])
    return {k: flat[e - a.size : e].reshape(a.shape) for (k, a), e in zip(arrays.items(), ends)}


def flat_buffer(arrays, keys):
    """The arrays of keys as one flat array: the flat_arrays buffer they view, if arrays
    lists exactly keys in their order (flat_arrays lays views out in dict order), or a copy."""
    parts = [arrays[k] for k in keys]
    base = parts[0].base
    if list(arrays) == list(keys) and base is not None and all(
            a.base is base for a in parts) and base.shape == (sum(a.size for a in parts),):
        return base
    return np.concatenate([a.ravel() for a in parts])


@dataclass
class ModelState:
    """The live parameter arrays of one transform mode (see MODE_PARAMS)."""

    mode: str
    dim: int
    hidden: int
    arrays: dict  # key -> array, in param_layout order, views of one flat buffer

    def params(self):
        """Live views of the mode's parameter arrays, keyed by a stable path."""
        return dict(self.arrays)

    def copy(self):
        return replace(self, arrays=flat_arrays(self.arrays))


@dataclass
class Checkpoint:
    model: ModelState
    config: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)


def default_hidden(dim):
    return max(dim // 16, 8)


def init_model(dim, hidden=None, mode="scale_shift", seed=0):
    """Identity-initialized model: transform(c) == c for every mode and input."""
    if not isinstance(dim, (int, np.integer)) or dim < 1:
        raise InvalidDim(f"dim must be a positive integer, got {dim}")
    if hidden is None:
        hidden = default_hidden(dim)
    if not 1 <= hidden < 2**32:  # a checkpoint stores it as a uint32
        raise InvalidDim(f"hidden must be in [1, 2**32), got {hidden}")
    if mode not in MODES:
        raise InvalidDim(f"unknown transform mode {mode!r}")
    size = sum(math.prod(shape) for _, shape, _ in param_layout(mode, dim, hidden))
    if size > MAX_ELEMS:  # the one flat buffer of all the arrays
        raise InvalidDim(f"{mode} with dim {dim} and hidden {hidden} has {size} parameters, "
                         f"more than numpy can shape ({MAX_ELEMS})")
    rng = philox(seed)
    bound = 1.0 / np.sqrt(dim)
    arrays = flat_arrays({key: rng.uniform(-bound, bound, size=shape) if ident is None
                          else np.full(shape, ident)
                          for key, shape, ident in param_layout(mode, dim, hidden)})
    return ModelState(mode=mode, dim=int(dim), hidden=int(hidden), arrays=arrays)


def role_terms(state, role, v, c_rows=None):
    """(a, b, z, h) of one role's tuned transform u = a * c + b, before normalization.

    The meta-net trunk is z = x @ w1.T + b1 and h = relu(z), where x is the
    image v (one (D,) image or a (B, D) batch) in vec_shift and scale_shift,
    and the role's bank rows c_rows in mlp. Then b = beta + (h @ w_beta.T +
    b_beta) and a = alpha + (h @ w_alpha.T + b_alpha), each head term only
    where the mode has it. a is None where it is all ones. In const_shift b
    is the head's (1,) beta and z, h are None. Training and scoring both tune
    through this one definition. An overflow here gives a non-finite a or b,
    which _tune_block and training's divergence check report without a warning.
    """
    p = role_arrays(state.arrays, state.mode, role)
    if "w1" not in p:  # const_shift has no meta-net
        return None, p["beta"], None, None
    with np.errstate(over="ignore", invalid="ignore"):
        z = (c_rows if state.mode == "mlp" else v) @ p["w1"].T + p["b1"]
        h = np.maximum(z, 0.0)
        b = h @ p["w_beta"].T + p["b_beta"]
        a = None
        if "beta" in p:
            b = p["beta"] + b
            if "alpha" in p:
                a = p["alpha"] + (h @ p["w_alpha"].T + p["b_alpha"])
    return a, b, z, h


# bank rows per block of every tuning and cosine pass: a tuned block stays in cache
_BLOCK_ROWS = 256


@np.errstate(over="ignore")  # an overflow of a * c + b raises in scale_to_unit, unwarned
def _tune_block(rows, n_pos, terms, r, e, out, sq):
    """Tune rows[r:e] of a bank whose first n_pos rows are positive into out[: e - r],
    u = a * c + b over ||u|| (scale_to_unit), and return the norms ||u||.

    terms holds each role's (a, b) from role_terms; mlp's per-row shifts are indexed
    within the role. sq, the squares' scratch, has at least e - r rows. Each tuned row
    depends on its own c row alone, so any split of the rows into calls gives the same bits.
    """
    out = out[: e - r]
    for (a, b), lo, hi, first in zip(terms, (r, max(r, n_pos)), (min(e, n_pos), e), (0, n_pos)):
        if lo < hi:
            c, u = rows[lo:hi], out[lo - r : hi - r]
            b = b[lo - first : hi - first] if b.ndim == 2 else b
            if a is None:
                np.add(c, b, out=u)
            else:
                np.multiply(a, c, out=u)
                np.add(u, b, out=u)
    return scale_to_unit(out, sq[: e - r])


def transform_bank(state, bank, v):
    """Tuned bank: positive rows with the positive head/net, negative with the negative.

    Returns a freshly allocated (N + M, D) array, tuned by _tune_block in
    blocks of _BLOCK_ROWS rows, the grid that krnft scoring tunes too.
    """
    v = as_f64(v)
    if bank.dim != state.dim or v.shape != (state.dim,):
        raise DimMismatch("bank, model and image feature dimensions must agree")
    as_f64(flat_buffer(state.arrays, state.arrays))  # NaN/Inf parameters
    terms = [role_terms(state, role, v, c_rows)[:2]
             for role, c_rows in zip(ROLES, (bank.pos, bank.neg))]
    k = bank.n_pos + bank.n_neg
    out = np.empty((k, bank.dim))
    sq = np.empty((min(_BLOCK_ROWS, k), bank.dim))
    for r in range(0, k, _BLOCK_ROWS):
        _tune_block(bank.rows(), bank.n_pos, terms, r, min(r + _BLOCK_ROWS, k), out[r:], sq)
    return out


def save_checkpoint(ckpt, path):
    """Write a v2 checkpoint: NFTC magic, version, dims, JSON metadata, the live arrays."""
    state = ckpt.model
    meta_blob = json.dumps({"config": ckpt.config, "meta": ckpt.meta}, sort_keys=True,
                           separators=(",", ":")).encode("utf-8")
    params = state.params()
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<BBH", CHECKPOINT_VERSION, MODES.index(state.mode), 0))
        f.write(struct.pack("<II", state.dim, state.hidden))
        f.write(struct.pack("<I", len(meta_blob)))
        f.write(meta_blob)
        for key, _, _ in param_layout(state.mode, state.dim, state.hidden):
            f.write(params[key].astype("<f8").tobytes())


def load_checkpoint(path):
    """Read a v2 checkpoint, or a v1 one, whose 16 arrays are cut to the live ones."""
    with open(path, "rb") as f:
        data = f.read()
    off = 0

    def take(n):
        nonlocal off
        if off + n > len(data):
            raise FormatError("checkpoint file truncated")
        chunk = data[off : off + n]
        off += n
        return chunk

    if take(4) != CHECKPOINT_MAGIC:
        raise FormatError("bad checkpoint magic")
    version, mode_code, _ = struct.unpack("<BBH", take(4))
    if version not in (1, CHECKPOINT_VERSION):
        raise FormatError(f"unsupported checkpoint version {version}")
    if mode_code >= len(MODES):
        raise FormatError(f"unknown transform mode code {mode_code}")
    mode = MODES[mode_code]
    dim, hidden = struct.unpack("<II", take(8))
    if dim < 1 or hidden < 1:
        raise FormatError(f"checkpoint declares dim={dim}, hidden={hidden}; both must be >= 1")
    (meta_len,) = struct.unpack("<I", take(4))
    meta_raw = take(meta_len)
    layout = v1_layout(dim, hidden) if version == 1 else param_layout(mode, dim, hidden)
    payload = 8 * sum(math.prod(shape) for _, shape, _ in layout)
    if len(data) - off < payload:
        raise FormatError(
            f"checkpoint file truncated: dim={dim}, hidden={hidden} need {payload} "
            f"parameter bytes, {len(data) - off} left")
    try:
        blob = json.loads(meta_raw.decode("utf-8"))
    except UnicodeDecodeError:
        raise FormatError("checkpoint metadata is not valid UTF-8") from None
    except ValueError as e:  # JSONDecodeError, or an integer past int's digit limit
        raise FormatError(f"checkpoint metadata is not valid JSON: {e}") from None
    if not isinstance(blob, dict) or not {"config", "meta"} <= blob.keys():
        raise FormatError("checkpoint metadata lacks its 'config' and 'meta' entries")
    arrays = {key: np.frombuffer(take(8 * math.prod(shape)), dtype="<f8").reshape(shape)
              for key, shape, _ in layout}
    if off != len(data):
        raise FormatError("trailing bytes after checkpoint payload")
    if version == 1:
        arrays = live_from_v1(mode, dim, hidden, arrays)
    for key, a in arrays.items():
        if not np.isfinite(a).all():
            raise NonFiniteInput(f"checkpoint array {key} contains NaN or Inf")
    state = ModelState(mode=mode, dim=dim, hidden=hidden, arrays=flat_arrays(arrays))
    return Checkpoint(model=state, config=blob["config"], meta=blob["meta"])


def states_equal(a, b):
    if a.mode != b.mode or a.dim != b.dim or a.hidden != b.hidden:
        return False
    pa, pb = a.params(), b.params()
    return all(np.array_equal(pa[k], pb[k]) for k in pa)
