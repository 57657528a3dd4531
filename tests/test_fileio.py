import csv
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

import dtcmorph.fileio as fileio
from dtcmorph.errors import ValidationError
from dtcmorph.fileio import (
    ConfigError,
    EmittedFile,
    RunConfig,
    format_value,
    write_csv,
    write_manifest,
)


@pytest.mark.parametrize("payload", [b"", b"dtcmorph", bytes(range(256)) * (3 << 12)],
                         ids=["empty", "short", "3MB"])
def test_write_csv_sha256_is_hashlibs(payload):
    # write_csv hashes line by line with CPython's built-in sha256
    digest = fileio.sha256()
    for start in range(0, len(payload), 1000):
        digest.update(payload[start:start + 1000])
    assert digest.hexdigest() == hashlib.sha256(payload).hexdigest()


def test_config_round_trip_identity():
    cfg = RunConfig(
        n_sites=6,
        lambdas=(0.001, 0.5, 0.999),
        realizations=25,
        periods=64,
        master_seed=987654321,
        bins=20,
        initial_config=3,
        j0=0.3,
    )
    assert RunConfig.from_dict(cfg.to_dict()) == cfg
    # twice through the serializer is still the identity
    round_tripped = RunConfig.from_dict(
        RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))).to_dict()
    )
    assert round_tripped == cfg


def test_config_file_round_trip(tmp_path):
    cfg = RunConfig(n_sites=4, lambdas=(0.0, 1.0 / 3.0, 1.0), master_seed=5)
    path = tmp_path / "run.json"
    path.write_text(cfg.to_json(), encoding="utf-8")
    assert RunConfig.from_file(path) == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"n_sights": 8})


def test_config_rejects_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        RunConfig.from_file(tmp_path / "absent.json")


def test_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        RunConfig.from_file(path)


def test_params_for_applies_overrides():
    cfg = RunConfig(n_sites=4, j0=0.99)
    params = cfg.params_for(0.5)
    assert params.j0 == 0.99
    assert params.lam == 0.5
    assert params.g == RunConfig(n_sites=4).params_for(0.5).g


def test_format_value_round_trips_floats():
    rng = np.random.default_rng(0)
    for x in rng.normal(scale=1e3, size=50):
        assert float(format_value(float(x))) == float(x)
    assert format_value(np.float64(0.1)) == "0.1"
    assert format_value(np.int64(7)) == "7"
    assert format_value(3) == "3"


@pytest.mark.parametrize(
    "text, cell",
    [
        ("a,b", '"a,b"'),
        ('say "x"', '"say ""x"""'),
        ("two\nlines", '"two\nlines"'),
        ("MemoryError: plain text", "MemoryError: plain text"),
    ],
)
def test_format_value_quotes_strings_like_rfc_4180(tmp_path, text, cell):
    assert format_value(text) == cell
    write_csv(tmp_path, "t.csv", ("error", "n"), [(text, 1)])
    with open(tmp_path / "t.csv", newline="", encoding="utf-8") as fh:
        assert list(csv.reader(fh)) == [["error", "n"], [text, "1"]]


@pytest.mark.parametrize(
    "value, cell",
    [
        (True, "1"),
        (np.True_, "1"),
        (np.False_, "0"),
        (np.int64(-3), "-3"),
        (np.float32(0.5), "0.5"),
        (-0.0, "-0.0"),
    ],
)
def test_format_value_renders_numpy_scalars_like_python_ones(value, cell):
    assert format_value(value) == cell


def test_format_value_rejects_non_finite():
    with pytest.raises(ValidationError):
        format_value(float("nan"))
    with pytest.raises(ValidationError):
        format_value(float("inf"))


def test_write_csv_digest_and_rows(tmp_path):
    emitted = write_csv(tmp_path, "table.csv", ("a", "b"), [(1, 0.5), (2, 0.25)])
    assert isinstance(emitted, EmittedFile)
    assert emitted.rows == 2
    payload = (tmp_path / "table.csv").read_bytes()
    assert payload == b"a,b\n1,0.5\n2,0.25\n"
    assert emitted.sha256 == hashlib.sha256(payload).hexdigest()


def test_write_csv_rejects_nan_rows(tmp_path):
    with pytest.raises(ValidationError):
        write_csv(tmp_path, "bad.csv", ("a",), [(float("nan"),)])


def test_write_csv_array_cells_match_format_value(tmp_path):
    # an array cell is written as its elements, byte for byte as format_value
    # renders them one by one
    floats = np.array([-0.0, 1e-300, 5e-324, 0.1, -2.5e17, 1.0 / 3.0])
    rows = [
        ("a", True, 3, np.int64(-4), floats),
        (np.float64(0.5), floats[::-1], np.array([1, 2], dtype=np.int64), "b"),
        (False, np.array([np.float32(0.1)]), -0.0),
    ]
    emitted = write_csv(tmp_path, "mixed.csv", ("h",), rows)
    expected = ["h"]
    for row in rows:
        cells = []
        for value in row:
            values = value.tolist() if isinstance(value, np.ndarray) else [value]
            cells.extend(format_value(v) for v in values)
        expected.append(",".join(cells))
    assert (tmp_path / "mixed.csv").read_bytes() == ("\n".join(expected) + "\n").encode()
    assert emitted.rows == 3
    assert "-0.0,1e-300,5e-324" in expected[1]


# traced allocations while a 200 x 2048 table (8 MB of text) streams out:
# one row is ~0.4 MB of Python objects, the whole payload 8 MB
STREAM_PEAK_BOUND = 2_000_000


def test_write_csv_streams_a_generator_one_row_at_a_time(tmp_path):
    rng = np.random.default_rng(7)
    rows = ((i, rng.standard_normal(2048)) for i in range(200))
    tracemalloc.start()
    try:
        emitted = write_csv(tmp_path, "big.csv", ("i", *(f"x{j}" for j in range(2048))), rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    payload = (tmp_path / "big.csv").read_bytes()
    assert len(payload) > 3 * STREAM_PEAK_BOUND
    assert peak < STREAM_PEAK_BOUND
    assert emitted.rows == 200
    assert emitted.sha256 == hashlib.sha256(payload).hexdigest()


def _late_failure(bad_row):
    for i in range(200):
        yield bad_row if i == 150 else (0.5, np.ones(3))


@pytest.mark.parametrize(
    "bad_row,error,message",
    [
        ((float("nan"), np.ones(3)), ValidationError, r"non-finite value in output \(late.csv\)"),
        ((0.5, np.array([1.0, np.inf, 0.0])), ValidationError, r"\(late.csv\)"),
        ((0.5, "x", object()), TypeError, None),
    ],
)
def test_write_csv_deletes_a_table_that_fails_part_way(tmp_path, bad_row, error, message):
    with pytest.raises(error, match=message):
        write_csv(tmp_path, "late.csv", ("a", "b", "c", "d"), _late_failure(bad_row))
    assert list(tmp_path.iterdir()) == []


def test_write_csv_rejects_nan_in_an_array_cell(tmp_path):
    with pytest.raises(ValidationError, match=r"non-finite value in output \(bad.csv\)"):
        write_csv(tmp_path, "bad.csv", ("a", "b"), [(0.5, np.array([1.0, np.nan]))])
    assert not (tmp_path / "bad.csv").exists()


def test_manifest_contents(tmp_path):
    cfg = RunConfig(n_sites=4, lambdas=(0.5,), realizations=1, periods=8)
    emitted = write_csv(tmp_path, "data.csv", ("x",), ((0.1 * i,) for i in range(1000)))
    path = write_manifest(
        tmp_path,
        "spectrum",
        cfg,
        [emitted],
        {
            "cell_seeds": [{"lambda_index": 0, "realization_index": 0, "seed": 42}],
            "workers": 2,
            "note": "test",
        },
    )
    manifest = json.loads(path.read_text(encoding="utf-8"))
    assert manifest["tool"] == "dtcmorph"
    assert manifest["units"] == {"hbar": 1.0, "default_period": 1.0}
    assert manifest["config"]["n_sites"] == 4
    assert manifest["files"][0]["sha256"] == emitted.sha256
    # the digest hashed while streaming is the digest of the bytes on disk
    assert emitted.sha256 == hashlib.sha256((tmp_path / "data.csv").read_bytes()).hexdigest()
    assert manifest["cell_seeds"][0]["seed"] == 42
    assert manifest["workers"] == 2
    assert manifest["note"] == "test"
    assert "created_utc" in manifest
