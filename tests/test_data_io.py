import json
import re
import struct

import numpy as np
import pytest

from nft_ood.errors import (
    FormatError,
    InvalidConfig,
    SchemaError,
    ZeroNorm,
)
from nft_ood.data_io import (
    SynthConfig,
    read_bank,
    read_manifest,
    synth_dataset,
    write_bank,
    write_manifest,
)
from selection_reference import oracle_synth


# ---- FBNK format ----


def test_bank_round_trip():
    rng = np.random.default_rng(80)
    mat = rng.standard_normal((3, 4))
    path = None
    import tempfile, os

    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "m.fbnk")
        write_bank(path, mat)
        back = read_bank(path)
        assert back.shape == (3, 4)
        assert np.max(np.abs(back - mat)) < 1e-6  # float32 storage rounding


def test_bank_header_fields_exact(tmp_path):
    path = tmp_path / "m.fbnk"
    write_bank(path, np.zeros((2, 5)) + 0.5)
    data = path.read_bytes()
    assert data[:4] == b"FBNK"
    version, dtype, reserved = struct.unpack("<BBH", data[4:8])
    assert (version, dtype, reserved) == (1, 1, 0)
    rows, dim = struct.unpack("<QQ", data[8:24])
    assert (rows, dim) == (2, 5)
    assert len(data) == 24 + 2 * 5 * 4


def test_bank_bad_magic(tmp_path):
    path = tmp_path / "m.fbnk"
    path.write_bytes(b"XXXX" + b"\x00" * 32)
    with pytest.raises(FormatError):
        read_bank(path)


def test_bank_short_payload(tmp_path):
    path = tmp_path / "m.fbnk"
    header = b"FBNK" + struct.pack("<BBH", 1, 1, 0) + struct.pack("<QQ", 2, 2)
    path.write_bytes(header + b"\x00" * 15)  # needs 16 payload bytes
    with pytest.raises(FormatError):
        read_bank(path)


def test_bank_unknown_version_and_dtype(tmp_path):
    path = tmp_path / "m.fbnk"
    header = b"FBNK" + struct.pack("<BBH", 2, 1, 0) + struct.pack("<QQ", 0, 0)
    path.write_bytes(header)
    with pytest.raises(FormatError):
        read_bank(path)
    header = b"FBNK" + struct.pack("<BBH", 1, 9, 0) + struct.pack("<QQ", 0, 0)
    path.write_bytes(header)
    with pytest.raises(FormatError):
        read_bank(path)


@pytest.mark.parametrize("rows, dim", [(0, 2**63), (0, 2**62), (2**63, 0), (5, 0)])
def test_bank_header_numpy_cannot_shape_is_format_error(tmp_path, rows, dim):
    # once a ValueError from reshape, or for (5, 0) a ZeroNorm of the empty rows
    path = tmp_path / "m.fbnk"
    path.write_bytes(b"FBNK" + struct.pack("<BBH", 1, 1, 0) + struct.pack("<QQ", rows, dim))
    for unit_rows in (False, True):
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: .* width {dim},"):
            read_bank(path, unit_rows=unit_rows)
    write_bank(path, np.zeros((0, 8)))  # no rows of a real width still load
    assert read_bank(path, unit_rows=True).shape == (0, 8)


def test_bank_unit_rows_renormalized_with_warning(tmp_path):
    path = tmp_path / "m.fbnk"
    write_bank(path, np.array([[3.0, 4.0]]))
    with pytest.warns(UserWarning):
        mat = read_bank(path, unit_rows=True)
    assert np.allclose(mat[0], [0.6, 0.8], atol=1e-6)


def test_bank_unit_rows_rejects_near_zero(tmp_path):
    path = tmp_path / "m.fbnk"
    write_bank(path, np.array([[1e-7, 0.0]]))
    with pytest.raises(ZeroNorm):
        read_bank(path, unit_rows=True)


def test_bank_round_trip_random_sizes(tmp_path):
    rng = np.random.default_rng(81)
    for i in range(10):
        rows = int(rng.integers(1, 20))
        dim = int(rng.integers(1, 20))
        mat = rng.standard_normal((rows, dim)).astype(np.float32).astype(np.float64)
        path = tmp_path / f"m{i}.fbnk"
        write_bank(path, mat)
        assert np.array_equal(read_bank(path), mat)  # exact: values are f32


# ---- manifests ----


def test_manifest_round_trip(tmp_path):
    path = tmp_path / "m.jsonl"
    records = [
        {"row": 0, "id": "a", "role": "pos_label", "class": 0},
        {"row": 1, "id": "b", "role": "neg_label"},
        {"row": 2, "id": "c", "role": "train_pos", "class": 1},
        {"row": 3, "id": "d", "role": "train_neg"},
        {"row": 4, "id": "e", "role": "test_id", "class": 0},
    ]
    write_manifest(path, records)
    assert read_manifest(path) == records


def test_manifest_duplicate_row(tmp_path):
    path = tmp_path / "m.jsonl"
    write_manifest(
        path,
        [
            {"row": 0, "id": "a", "role": "neg_label"},
            {"row": 0, "id": "b", "role": "neg_label"},
        ],
    )
    with pytest.raises(SchemaError):
        read_manifest(path)


def test_manifest_train_pos_requires_class(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text(json.dumps({"row": 0, "id": "a", "role": "train_pos"}) + "\n")
    with pytest.raises(SchemaError):
        read_manifest(path)


def test_manifest_class_forbidden_on_negatives(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text(
        json.dumps({"row": 0, "id": "a", "role": "neg_label", "class": 2}) + "\n"
    )
    with pytest.raises(SchemaError):
        read_manifest(path)


def test_manifest_unknown_keys(tmp_path):
    path = tmp_path / "m.jsonl"
    record = {"row": 0, "id": "a", "role": "neg_label", "color": "red"}
    write_manifest(path, [record])  # a warning fails the test
    assert read_manifest(path) == [record]
    # unknown keys written by other tools are preserved on read
    path.write_text(
        json.dumps({"row": 0, "id": "a", "role": "neg_label", "extra": 5}) + "\n"
    )
    assert read_manifest(path)[0]["extra"] == 5


def test_manifest_bytes_are_per_record_json_dumps(tmp_path):
    # the synth manifest's records, with non-ASCII ids and unknown keys mixed in
    records = synth_dataset(SynthConfig()).records
    records[3] = dict(records[3], id="é\u2603", color="red")
    records[7] = dict(records[7], parent="img_7", score=0.5)
    path = tmp_path / "m.jsonl"
    write_manifest(path, records)  # a warning fails the test
    assert path.read_bytes() == "".join(
        json.dumps(r, sort_keys=True) + "\n" for r in records).encode()
    assert read_manifest(path) == records


def test_manifest_row_bounds(tmp_path):
    path = tmp_path / "m.jsonl"
    write_manifest(path, [{"row": 9, "id": "a", "role": "neg_label"}])
    with pytest.raises(SchemaError):
        read_manifest(path, n_rows=5)


def test_manifest_missing_key(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text(json.dumps({"row": 0, "role": "neg_label"}) + "\n")
    with pytest.raises(SchemaError):
        read_manifest(path)


_OK_LINE = '{"id": "a", "role": "neg_label", "row": 0}\n'


# each manifest's SchemaError text after the path, as the json.loads-per-line reader gave it
_MANIFEST_ERRORS = [
    (_OK_LINE + '{"id": "b", "role": "neg_label", "row": 1\n',
     "line 2: not valid JSON: Expecting ',' delimiter: line 1 column 42 (char 41)"),
    (_OK_LINE + '{"id": "b", "role": "neg_label", "row": 1} {"x": 1}\n',
     "line 2: not valid JSON: Extra data: line 1 column 44 (char 43)"),
    (_OK_LINE.replace("}", "}\x00"),
     "line 1: not valid JSON: Extra data: line 1 column 43 (char 42)"),
    ("\ufeff" + _OK_LINE, "line 1: not valid JSON: Unexpected UTF-8 BOM (decode using "
     "utf-8-sig): line 1 column 1 (char 0)"),
    (_OK_LINE + "[1, 2]\n", "line 2: not a JSON object"),
    (_OK_LINE + '{"id": "b", "role": "neg_label"}\n', "line 2: missing key 'row'"),
    ('{"id": "b", "role": "neg_label", "row": "1"}\n', "line 1: row '1' is not an integer"),
    ('{"id": "b", "role": "neg_label", "row": NaN}\n', "line 1: row nan is not an integer"),
    ('{"class": "a", "id": "b", "role": "train_pos", "row": 1}\n',
     "line 1: class 'a' is not an integer"),
    ('{"class": 1, "id": "b", "role": "crop", "parent": 3, "row": 1}\n',
     "line 1: parent 3 is not a string"),
    ("\n  \n" + _OK_LINE + _OK_LINE.replace('"a"', '"b"'), "line 4: duplicate row 0"),
    (_OK_LINE.replace("\n", "\r") + _OK_LINE, "line 2: duplicate row 0"),  # so does a CR
    (_OK_LINE + _OK_LINE.replace("0", "5"), "line 2: row 5 outside bank bounds"),
    (_OK_LINE + "\udcff\n", ": not valid UTF-8"),  # written as the byte 0xff
]


@pytest.mark.parametrize("content, message", _MANIFEST_ERRORS,
                         ids=[m.split(":")[1].strip() or "utf8" for _, m in _MANIFEST_ERRORS])
def test_manifest_error_messages(tmp_path, content, message):
    path = tmp_path / "m.jsonl"
    path.write_bytes(content.encode("utf-8", errors="surrogateescape"))
    with pytest.raises(SchemaError) as e:
        read_manifest(path, n_rows=3)
    assert str(e.value) == f"{path}" + ("" if message.startswith(":") else " ") + message


@pytest.mark.parametrize("row", ["3", 1.0, True, None])
def test_manifest_row_must_be_an_integer(tmp_path, row):
    path = tmp_path / "m.jsonl"
    path.write_text(json.dumps({"row": row, "id": "a", "role": "neg_label"}) + "\n")
    with pytest.raises(SchemaError, match="not an integer"):
        read_manifest(path)


# ---- synthetic generator ----


def test_synth_config_validation():
    with pytest.raises(InvalidConfig):
        SynthConfig(dim=0)
    with pytest.raises(InvalidConfig):
        SynthConfig(kappa=-0.1)
    with pytest.raises(InvalidConfig):
        SynthConfig(select=10, crops_per_sample=16)


def test_synth_deterministic():
    a = synth_dataset(SynthConfig(seed=7))
    b = synth_dataset(SynthConfig(seed=7))
    assert np.array_equal(a.bank.rows(), b.bank.rows())
    assert np.array_equal(a.training.pos_features, b.training.pos_features)
    assert np.array_equal(a.test_id, b.test_id)
    assert np.array_equal(a.test_ood, b.test_ood)
    assert a.records == b.records
    c = synth_dataset(SynthConfig(seed=8))
    assert not np.array_equal(a.bank.rows(), c.bank.rows())


def test_synth_structure_counts():
    cfg = SynthConfig()  # D=32, N=8, M=64, S=4, P=16, Q=4
    res = synth_dataset(cfg)
    assert res.bank.n_pos == 8 and res.bank.n_neg == 64 and res.bank.dim == 32
    k = cfg.n_classes * cfg.shots
    assert res.training.n_pos == k * cfg.select == 128
    assert res.training.n_neg == k * cfg.select == 128
    assert res.test_id.shape == (8 * cfg.n_test_per_class, 32)
    assert res.test_ood.shape == (cfg.n_test_ood, 32)
    roles = [r["role"] for r in res.records]
    assert roles.count("pos_label") == 8
    assert roles.count("neg_label") == 64
    assert roles.count("train_pos") == 128
    assert roles.count("train_neg") == 128
    rows = [r["row"] for r in res.records]
    assert rows == list(range(len(rows)))


def test_synth_noiseless_prototypes():
    res = synth_dataset(SynthConfig(kappa=0.0, n_test_per_class=4, n_test_ood=16))
    protos = res.bank.pos
    for i, c in enumerate(res.test_id_classes):
        assert np.allclose(res.test_id[i], protos[c], atol=1e-12)


def test_synth_rows_unit_norm():
    res = synth_dataset(SynthConfig())
    for mat in (res.bank.rows(), res.training.pos_features, res.test_id, res.test_ood):
        assert np.max(np.abs(np.linalg.norm(mat, axis=1) - 1.0)) < 1e-12


@pytest.mark.parametrize("cfg", [
    SynthConfig(),
    SynthConfig(dim=128, n_classes=100, m_neg=1000),  # mid shape
    SynthConfig(background_fraction=0.0),  # no background crops
    SynthConfig(background_fraction=1.0),  # no foreground crops
    SynthConfig(kappa=0.0),
], ids=["default", "mid", "background_0", "background_1", "kappa_0"])
def test_synth_matches_per_crop_set_loop(cfg):
    got, want = synth_dataset(cfg), oracle_synth(cfg)
    assert np.array_equal(got.bank.matrix, want.bank.matrix)
    assert got.bank.n_pos == want.bank.n_pos
    for name in ("pos_features", "pos_labels", "neg_features"):
        assert np.array_equal(getattr(got.training, name), getattr(want.training, name)), name
    for name in ("test_id", "test_ood", "test_id_classes"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.records == want.records
