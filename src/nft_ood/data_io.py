"""Feature-bank file format, JSONL manifests, and the synthetic dataset generator.

The FBNK container stores row-major float32 little-endian payloads regardless
of host endianness. All randomness flows through a counter-based Philox
generator keyed on the config seed, so fixtures are portable.
"""

import json
import math
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, InvalidConfig, SchemaError, ZeroNorm
from .mining import CropSet, build_training_set
from .model import FeatureBank, TrainingSet
from .numerics import as_f64, normalize_rows, philox

BANK_MAGIC = b"FBNK"
BANK_VERSION = 1
BANK_DTYPE_F32 = 1

MANIFEST_ROLES = (
    "pos_label",
    "neg_label",
    "train_pos",
    "train_neg",
    "test_id",
    "test_ood",
    "crop",
)
_CLASS_REQUIRED = {"train_pos", "crop"}
_CLASS_FORBIDDEN = {"neg_label", "train_neg", "test_ood"}
_KNOWN_KEYS = ("row", "id", "role", "class", "parent")


def write_bank(path, mat):
    mat = as_f64(np.atleast_2d(mat))
    rows, dim = mat.shape
    with open(path, "wb") as f:
        f.write(BANK_MAGIC)
        f.write(struct.pack("<BBH", BANK_VERSION, BANK_DTYPE_F32, 0))
        f.write(struct.pack("<QQ", rows, dim))
        f.write(mat.astype("<f4").tobytes())


def read_bank(path, unit_rows=False):
    """Read an FBNK file as a float64 matrix.

    With unit_rows=True the rows are treated as feature vectors: rows whose
    norm deviates from 1 by more than 1e-5 are re-normalized with a warning,
    and rows with norm below 1e-6 are rejected.
    """
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 24:
        raise FormatError("bank file too short for header")
    if data[:4] != BANK_MAGIC:
        raise FormatError("bad bank magic")
    version, dtype, _ = struct.unpack("<BBH", data[4:8])
    if version != BANK_VERSION:
        raise FormatError(f"unsupported bank version {version}")
    if dtype != BANK_DTYPE_F32:
        raise FormatError(f"unsupported bank dtype code {dtype}")
    rows, dim = struct.unpack("<QQ", data[8:24])
    expected = rows * dim * 4
    if len(data) - 24 != expected:
        raise FormatError(
            f"payload length {len(data) - 24} != rows*dim*4 = {expected}"
        )
    mat = np.frombuffer(data[24:], dtype="<f4").astype(np.float64).reshape(rows, dim)
    if unit_rows:
        norms = np.sqrt(np.sum(mat * mat, axis=1))
        if np.any(norms < 1e-6):
            raise ZeroNorm("bank contains a near-zero feature row")
        if np.any(np.abs(norms - 1.0) > 1e-5):
            warnings.warn("bank rows deviate from unit norm by > 1e-5; re-normalizing")
            mat = mat / norms[:, None]
    return mat


def write_manifest(path, records):
    """Write a list of JSONL manifest records; unknown keys are dropped with a warning."""
    encode = json.JSONEncoder(sort_keys=True).encode  # the text of json.dumps(r, sort_keys=True)
    dropped = {k for rec in records for k in rec if k not in _KNOWN_KEYS}
    if dropped:  # sort_keys makes a record's text independent of its key order
        records = [{k: rec[k] for k in _KNOWN_KEYS if k in rec} for rec in records]
    with open(path, "w") as f:
        f.write("".join(encode(rec) + "\n" for rec in records))
    if dropped:
        warnings.warn(f"dropped unknown manifest keys: {sorted(dropped)}")


def number_records(parts):
    """Manifest records for parts laid back to back, numbered from row 0.

    Each part is (role, id prefix, row count, per-row classes or None); its
    i-th row gets the id f"{prefix}_{i}" and, if classes are given, the
    class classes[i].
    """
    records = []
    for role, prefix, count, classes in parts:
        for i in range(count):
            rec = {"row": len(records), "id": f"{prefix}_{i}", "role": role}
            if classes is not None:
                rec["class"] = int(classes[i])
            records.append(rec)
    return records


def _record_error(rec, seen_rows, n_rows):
    """What is wrong with a decoded manifest line: the first rule it breaks, or None."""
    if not isinstance(rec, dict):
        return "not a JSON object"
    for key in ("row", "id", "role"):
        if key not in rec:
            return f"missing key {key!r}"
    if type(rec["row"]) is not int:
        return f"row {rec['row']!r} is not an integer"
    if rec["role"] not in MANIFEST_ROLES:
        return f"unknown role {rec['role']!r}"
    if rec["role"] in _CLASS_REQUIRED and "class" not in rec:
        return f"role {rec['role']!r} requires a class index"
    if rec["role"] in _CLASS_FORBIDDEN and "class" in rec:
        return f"role {rec['role']!r} must not carry a class"
    if "class" in rec and type(rec["class"]) is not int:
        return f"class {rec['class']!r} is not an integer"
    if rec["role"] == "crop" and "parent" not in rec:
        return "role 'crop' requires a parent"
    if "parent" in rec and type(rec["parent"]) is not str:
        return f"parent {rec['parent']!r} is not a string"
    if rec["row"] in seen_rows:
        return f"duplicate row {rec['row']}"
    if n_rows is not None and not 0 <= rec["row"] < n_rows:
        return f"row {rec['row']} outside bank bounds"


def read_manifest(path, n_rows=None):
    """Read JSONL manifest records, preserving unknown keys.

    A line that is not UTF-8 JSON, not a JSON object or not a valid record
    raises SchemaError naming the file and line.
    """
    records, seen_rows = [], set()
    raw_decode = json.JSONDecoder().raw_decode
    try:
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                line = line.strip()
                if not line:
                    continue
                try:  # one decode; json.loads where it fails or stops short, for json's message
                    rec, end = raw_decode(line)
                except json.JSONDecodeError:
                    end = None
                if end != len(line):
                    try:
                        rec = json.loads(line)
                    except json.JSONDecodeError as e:
                        raise SchemaError(f"{path} line {lineno}: not valid JSON: {e}") from None
                error = _record_error(rec, seen_rows, n_rows)
                if error is not None:
                    raise SchemaError(f"{path} line {lineno}: {error}")
                seen_rows.add(rec["row"])
                records.append(rec)
    except UnicodeDecodeError:
        raise SchemaError(f"{path}: not valid UTF-8") from None
    return records


@dataclass
class SynthConfig:
    dim: int = 32
    n_classes: int = 8
    m_neg: int = 64
    shots: int = 4
    crops_per_sample: int = 16
    select: int = 4
    kappa: float = 0.3
    seed: int = 7
    n_test_per_class: int = 16
    n_test_ood: int = 128
    background_fraction: float = 0.5

    def __post_init__(self):
        for name in ("dim", "n_classes", "m_neg", "shots", "crops_per_sample",
                     "select", "n_test_per_class", "n_test_ood"):
            if getattr(self, name) < 1:
                raise InvalidConfig(f"{name} must be >= 1")
        if not 0 <= self.kappa < math.inf:  # also rejects NaN; 0 means noiseless prototypes
            raise InvalidConfig(f"kappa must be finite and >= 0, got {self.kappa}")
        if not 0 <= self.background_fraction <= 1:
            raise InvalidConfig(f"background_fraction must be in [0, 1], got "
                                f"{self.background_fraction}")
        if 2 * self.select > self.crops_per_sample:
            raise InvalidConfig("need 2*select <= crops_per_sample")


@dataclass
class SynthResult:
    bank: FeatureBank
    training: TrainingSet
    test_id: np.ndarray
    test_ood: np.ndarray
    test_id_classes: np.ndarray
    records: list = field(default_factory=list)


def _noisy(rng, protos, kappa):
    """One unit row near each row of protos: protos + kappa N(0, 1), normalized."""
    return normalize_rows(protos + kappa * rng.standard_normal(protos.shape))


def synth_dataset(cfg):
    """Deterministic synthetic embedding dataset on the unit sphere.

    Positive and negative label prototypes are uniform on the sphere; ID
    images are noisy copies of their class prototype, OOD images noisy copies
    of negative prototypes, and crops mix class-prototype copies with planted
    background crops near negative prototypes.
    """
    rng = philox(cfg.seed)
    d, n, m = cfg.dim, cfg.n_classes, cfg.m_neg
    pos_proto = normalize_rows(rng.standard_normal((n, d)))
    neg_proto = normalize_rows(rng.standard_normal((m, d)))
    bank = FeatureBank.from_rows(pos_proto, neg_proto)

    n_bg = int(round(cfg.crops_per_sample * cfg.background_fraction))
    n_fg = cfg.crops_per_sample - n_bg
    classes = np.repeat(np.arange(n), cfg.shots)
    # each crop set draws from the stream in turn; the arithmetic runs once, in place
    crops = np.empty((classes.size, cfg.crops_per_sample, d))
    bg_protos = np.empty((classes.size, n_bg), dtype=int)
    for i in range(classes.size):
        rng.standard_normal(out=crops[i, :n_fg])
        bg_protos[i] = rng.integers(0, m, size=n_bg)
        rng.standard_normal(out=crops[i, n_fg:])
    crops *= cfg.kappa
    crops[:, :n_fg] += pos_proto[classes, None]
    crops[:, n_fg:] += neg_proto[bg_protos]
    crops = normalize_rows(crops.reshape(-1, d)).reshape(crops.shape)
    crop_sets = [CropSet(f"train_{c}_{i % cfg.shots}", c, f)
                 for i, (c, f) in enumerate(zip(classes.tolist(), crops))]
    training = build_training_set(crop_sets, pos_proto, cfg.select)

    test_id_classes = np.repeat(np.arange(n), cfg.n_test_per_class)
    test_id = _noisy(rng, pos_proto[test_id_classes], cfg.kappa)
    test_ood = _noisy(rng, neg_proto[rng.integers(0, m, size=cfg.n_test_ood)], cfg.kappa)

    # manifest rows index the virtual concatenation [labels, train, test_id, test_ood]
    records = number_records([
        ("pos_label", "pos", n, range(n)),
        ("neg_label", "neg", m, None),
        ("train_pos", "train_pos", training.n_pos, training.pos_labels),
        ("train_neg", "train_neg", training.n_neg, None),
        ("test_id", "test_id", test_id_classes.size, test_id_classes),
        ("test_ood", "test_ood", cfg.n_test_ood, None),
    ])

    return SynthResult(
        bank=bank,
        training=training,
        test_id=test_id,
        test_ood=test_ood,
        test_id_classes=test_id_classes,
        records=records,
    )
