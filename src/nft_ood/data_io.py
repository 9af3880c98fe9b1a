"""Feature-bank file format, JSONL manifests, the synthetic dataset generator, and the
dataset directory that holds its banks and manifest (write_dataset, read_dataset).

The FBNK container stores row-major float32 little-endian payloads regardless
of host endianness. All randomness flows through a counter-based Philox
generator keyed on the config seed, so fixtures are portable.
"""

import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataError, FormatError, InvalidConfig, SchemaError
from .mining import CropSet, build_training_set
from .model import FeatureBank, TrainingSet
from .numerics import MAX_ELEMS, as_f64, check_unit_rows, philox, scale_to_unit

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


def write_bank(path, mat):
    mat = as_f64(np.atleast_2d(mat))
    rows, dim = mat.shape
    with open(path, "wb") as f:
        f.write(BANK_MAGIC)
        f.write(struct.pack("<BBH", BANK_VERSION, BANK_DTYPE_F32, 0))
        f.write(struct.pack("<QQ", rows, dim))
        f.write(mat.astype("<f4", order="C"))


def read_bank(path, unit_rows=False):
    """Read an FBNK file as a float64 matrix. With unit_rows=True its rows are held to
    numerics.check_unit_rows, named by path, and re-normalized only if that says so."""
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 24:
        raise FormatError(f"{path}: bank file too short for header")
    if data[:4] != BANK_MAGIC:
        raise FormatError(f"{path}: bad bank magic")
    version, dtype, _ = struct.unpack("<BBH", data[4:8])
    if version != BANK_VERSION:
        raise FormatError(f"{path}: unsupported bank version {version}")
    if dtype != BANK_DTYPE_F32:
        raise FormatError(f"{path}: unsupported bank dtype code {dtype}")
    rows, dim = struct.unpack("<QQ", data[8:24])
    if not 0 < dim <= MAX_ELEMS:  # then the payload check bounds rows: numpy can shape both
        raise FormatError(f"{path}: bank header declares width {dim}, not in [1, {MAX_ELEMS}]")
    expected = rows * dim * 4
    if len(data) - 24 != expected:
        raise FormatError(f"{path}: payload length {len(data) - 24} != rows*dim*4 = {expected}")
    mat = np.frombuffer(data[24:], dtype="<f4").astype(np.float64).reshape(rows, dim)
    del data  # before the norms and any re-normalization
    if unit_rows and check_unit_rows(np.sqrt(np.einsum("ij,ij->i", mat, mat)), path):
        scale_to_unit(mat)
    return mat


def write_manifest(path, records):
    """Write a list of JSONL manifest records as given, unknown keys included."""
    encode = json.JSONEncoder(sort_keys=True).encode  # the text of json.dumps(r, sort_keys=True)
    with open(path, "w") as f:
        f.write("".join(encode(rec) + "\n" for rec in records))


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
                except ValueError:  # JSONDecodeError, or an integer past int's digit limit
                    end = None
                if end != len(line):
                    try:
                        rec = json.loads(line)
                    except ValueError as e:
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
        n, d = int(self.n_classes), int(self.dim)  # Python ints: numpy's would wrap
        rows = max(n + int(self.m_neg), n * int(self.shots) * int(self.crops_per_sample),
                   n * int(self.n_test_per_class), int(self.n_test_ood))
        if rows * d > MAX_ELEMS:  # synth_dataset's largest float64 array
            raise InvalidConfig(f"dim * max(n_classes + m_neg, n_classes * shots * "
                                f"crops_per_sample, n_classes * n_test_per_class, n_test_ood) "
                                f"= {rows * d} > {MAX_ELEMS}, more than numpy can shape")


@dataclass
class SynthResult:
    bank: FeatureBank
    training: TrainingSet
    test_id: np.ndarray
    test_ood: np.ndarray
    test_id_classes: np.ndarray

    @property
    def records(self):
        """The manifest records of the label, training and test rows, numbered back to back
        from row 0 in write_dataset's bank order."""
        records = []
        for role, prefix, count, classes in (
                ("pos_label", "pos", self.bank.n_pos, range(self.bank.n_pos)),
                ("neg_label", "neg", self.bank.n_neg, None),
                ("train_pos", "train_pos", self.training.n_pos, self.training.pos_labels),
                ("train_neg", "train_neg", self.training.n_neg, None),
                ("test_id", "test_id", self.test_id_classes.size, self.test_id_classes),
                ("test_ood", "test_ood", self.test_ood.shape[0], None)):
            for i in range(count):
                rec = {"row": len(records), "id": f"{prefix}_{i}", "role": role}
                if classes is not None:
                    rec["class"] = int(classes[i])
                records.append(rec)
        return records


def _noisy(rng, protos, kappa):
    """One unit row near each row of protos: protos + kappa N(0, 1), normalized."""
    rows = protos + kappa * rng.standard_normal(protos.shape)
    scale_to_unit(rows)
    return rows


@np.errstate(over="ignore")  # a kappa that overflows raises in scale_to_unit, unwarned
def synth_dataset(cfg):
    """Deterministic synthetic embedding dataset on the unit sphere.

    Positive and negative label prototypes are uniform on the sphere; ID
    images are noisy copies of their class prototype, OOD images noisy copies
    of negative prototypes, and crops mix class-prototype copies with planted
    background crops near negative prototypes.
    """
    rng = philox(cfg.seed)
    d, n, m = cfg.dim, cfg.n_classes, cfg.m_neg
    pos_proto = rng.standard_normal((n, d))
    neg_proto = rng.standard_normal((m, d))
    for protos in (pos_proto, neg_proto):
        scale_to_unit(protos)
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
    scale_to_unit(crops.reshape(-1, d))
    crop_sets = [CropSet(f"train_{c}_{i % cfg.shots}", c, f)
                 for i, (c, f) in enumerate(zip(classes.tolist(), crops))]
    training = build_training_set(crop_sets, pos_proto, cfg.select)

    test_id_classes = np.repeat(np.arange(n), cfg.n_test_per_class)
    test_id = _noisy(rng, pos_proto[test_id_classes], cfg.kappa)
    test_ood = _noisy(rng, neg_proto[rng.integers(0, m, size=cfg.n_test_ood)], cfg.kappa)

    return SynthResult(
        bank=bank,
        training=training,
        test_id=test_id,
        test_ood=test_ood,
        test_id_classes=test_id_classes,
    )


def write_dataset(out_dir, result):
    """Write a SynthResult as a dataset directory: labels.fbnk, train.fbnk (positives, then
    negatives), test_id.fbnk, test_ood.fbnk, and manifest.jsonl, whose rows number the four
    banks back to back in that order. A bank with no rows is not written."""
    os.makedirs(out_dir, exist_ok=True)
    train = np.vstack([result.training.pos_features, result.training.neg_features])
    for name, rows in (("labels", result.bank.rows()), ("train", train),
                       ("test_id", result.test_id), ("test_ood", result.test_ood)):
        if rows.shape[0]:
            write_bank(os.path.join(out_dir, f"{name}.fbnk"), rows)
    write_manifest(os.path.join(out_dir, "manifest.jsonl"), result.records)


def _read_part(data_dir, name, records, roles, lo):
    """Each role's rows of name.fbnk, whose manifest rows start at lo, and its records, both in
    ascending row order, and the row count; each record's row is checked in manifest order."""
    path = os.path.join(data_dir, f"{name}.fbnk")
    rows = read_bank(path, unit_rows=True)
    kept = {role: [] for role in roles}
    for r in records:
        if r["role"] in kept:
            if not lo <= r["row"] < lo + rows.shape[0]:
                raise SchemaError(f"manifest row {r['row']} (id {r['id']!r}) is outside "
                                  f"rows [{lo}, {lo + rows.shape[0]}) of {path}")
            kept[r["role"]].append(r)
    recs = [sorted(kept[role], key=lambda r: r["row"]) for role in roles]
    return [rows[[r["row"] - lo for r in rs]] for rs in recs], recs, rows.shape[0]


def read_dataset(data_dir, training=True):
    """(label bank, training set) of a dataset directory (write_dataset); only if training
    is train.fbnk read, else the training set is None."""
    records = read_manifest(os.path.join(data_dir, "manifest.jsonl"))
    (pos, neg), (pos_recs, _), n_labels = _read_part(data_dir, "labels", records,
                                                     ("pos_label", "neg_label"), 0)
    if not pos_recs:
        raise DataError("manifest declares no pos_label rows")
    for rank, r in enumerate(pos_recs):  # a class names a row of bank.pos
        if r.get("class", rank) != rank:
            raise SchemaError(f"manifest row {r['row']} (id {r['id']!r}) has class {r['class']}, "
                              f"not its rank {rank} among the pos_label rows")
    bank = FeatureBank.from_rows(pos, neg)
    del pos, neg  # the bank holds its own copy, and train.fbnk is larger
    if not training:
        return bank, None
    (pos, neg), (pos_recs, _), _ = _read_part(data_dir, "train", records,
                                              ("train_pos", "train_neg"), n_labels)
    for r in records:  # in manifest order, as the row checks
        if r["role"] == "train_pos" and not 0 <= r["class"] < bank.n_pos:
            raise SchemaError(f"manifest row {r['row']} (id {r['id']!r}) has class {r['class']}, "
                              f"outside the {bank.n_pos} pos_label rows")
    return bank, TrainingSet(pos, np.array([r["class"] for r in pos_recs], dtype=int), neg)
