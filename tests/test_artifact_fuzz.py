"""Fuzz of the model artifact reader, :func:`citegap.refmodels.read_groups`.

Each example takes the ``groups.npz`` that ``model`` writes for rd, hd
``--attrs rank``, pd or pd ``--exact`` on a small synth corpus, breaks it
one way and reads it back against the archive:

* an entry dropped;
* an entry cast to another dtype (signed, unsigned, float, ``str``,
  bytes, object);
* an entry reshaped (0-d, 1-D, a column, one entry longer);
* one value of a numeric entry changed (by one, two entries swapped, the
  dtype's extremes, NaN, a nudge below 1e-9);
* an entry replaced by bytes that are not an ``.npy``;
* the file truncated, or one byte of it flipped.

The reader must raise nothing but a :class:`ModelError` naming the file,
or return the table it was given.  Two differences the format cannot
see are allowed in an accepted table: its ``c_bar`` nudged by less than
1e-9 from the table's column sums, which the reader takes as stored, and
a group's targets in another order, which no reduction reads.  An entry
made one shorter is not generated: ``attributes`` one name shorter
relabels a PD table to coarser attributes, which the reader cannot tell
from the table (see README, "Group tables").
"""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citegap import cli
from citegap.refmodels import ModelError, read_groups
from conftest import raw_entry

SYNTH_CONFIG = """n_papers=60
seed=5
date_start=2000-01-01
date_end=2004-12-31
out_degree=uniform:1,3
topics=4
"""

MODELS = {"rd": ("rd",), "hd-rank": ("hd", "--attrs", "rank"), "pd": ("pd",),
          "pd-exact": ("pd", "--exact")}
ARRAYS = ("order", "citing", "weight", "lo", "hi", "excluded_ptr", "excluded", "indptr",
          "indices", "target_ptr")
DTYPES = (np.int8, np.int16, np.int32, np.int64, np.uint32, np.uint64, np.float32,
          np.float64, str, bytes, object)
SHAPES = {
    "0-d": lambda a: a.reshape(-1)[:1].reshape(()) if a.size else np.zeros((), a.dtype),
    "1-D": lambda a: a.reshape(-1),
    "column": lambda a: a.reshape(-1, 1),
    "longer": lambda a: np.concatenate((a.reshape(-1), a.reshape(-1)[-1:] if a.size
                                        else np.zeros(1, a.dtype))),
}
INT_VALUES = ("plus-one", "minus-one", "swap", "max", "min")
FLOAT_VALUES = (*INT_VALUES, "nan", "nudge")
KINDS = ("drop", "dtype", "shape", "value", "not-npy", "truncate", "flip")


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "synth.cfg").write_text(SYNTH_CONFIG)
    assert cli.main(["synth", str(root / "synth.cfg"), str(root / "corpus")]) == 0
    net, _, inputs = cli._load_inputs(root / "corpus")
    digests = inputs["papers"]["sha256"], inputs["citations"]["sha256"]
    tables = {}
    for name, flags in MODELS.items():
        assert cli.main(["model", str(root / "corpus"), str(root / name),
                         "--model", *flags]) == 0
        path = root / name / "groups.npz"
        tables[name] = path.read_bytes(), read_groups(path, net, *digests)
    return root / "fuzzed.npz", net, digests, tables


def change_value(a, op, draw):
    """``a`` with one entry changed by ``op``; ``a`` is numeric and not empty."""
    a = a.copy()
    flat = a.reshape(-1)
    at = draw(st.integers(0, flat.size - 1))
    if op == "swap":
        other = draw(st.integers(0, flat.size - 1))
        flat[[at, other]] = flat[[other, at]]
    elif op in ("max", "min"):
        info = np.finfo(a.dtype) if a.dtype.kind == "f" else np.iinfo(a.dtype)
        flat[at] = info.max if op == "max" else info.min
    elif op == "nan":
        flat[at] = np.nan
    elif op == "nudge":
        flat[at] += draw(st.sampled_from([5e-10, -5e-10, 2e-9]))
    else:
        flat[at] += 1 if op == "plus-one" else -1
    return a


def mutate(path, data, kind, draw):
    """Write ``data``, the bytes of a groups.npz, to ``path`` broken one
    way; returns the entry and value change, if the mutation made one."""
    if kind == "truncate":
        path.write_bytes(data[:draw(st.integers(0, len(data) - 1))])
        return None
    if kind == "flip":
        flipped = bytearray(data)
        flipped[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
        path.write_bytes(bytes(flipped))
        return None
    path.write_bytes(data)
    with np.load(path) as npz:
        arrays = {name: npz[name] for name in npz.files}
    names = sorted(arrays)
    if kind == "value":
        names = [name for name in names if arrays[name].dtype.kind in "iuf" and arrays[name].size]
    name = draw(st.sampled_from(names))
    a, op = arrays[name], None
    if kind == "not-npy":
        raw_entry(path, name, draw(st.binary(max_size=16)))
        return None
    if kind == "drop":
        del arrays[name]
    elif kind == "dtype":
        dtypes = DTYPES if a.dtype.kind in "iuf" else (bytes, object)
        arrays[name] = a.astype(draw(st.sampled_from(dtypes)))
    elif kind == "shape":
        arrays[name] = SHAPES[draw(st.sampled_from(sorted(SHAPES)))](a)
    else:
        op = draw(st.sampled_from(FLOAT_VALUES if a.dtype.kind == "f" else INT_VALUES))
        arrays[name] = change_value(a, op, draw)
    np.savez(path, **arrays)
    return name, op


def targets_by_group(ec):
    """The targets of each group, sorted within it."""
    owner = np.repeat(np.arange(len(ec.citing)), np.diff(ec.target_ptr))
    return ec.targets[np.lexsort((ec.targets, owner))]


def assert_same_table(loaded, original, change):
    assert (loaded.model, loaded.attributes) == (original.model, original.attributes)
    for name in ARRAYS:
        np.testing.assert_array_equal(getattr(loaded, name), getattr(original, name))
    np.testing.assert_array_equal(targets_by_group(loaded), targets_by_group(original))
    if change == ("c_bar", "nudge"):
        sums = loaded.spread(np.ones(len(loaded.citing)))
        assert (np.abs(loaded.c_bar - sums) <= 1e-9).all()
    else:
        assert loaded.c_bar.tobytes() == original.c_bar.tobytes()


@settings(max_examples=250, derandomize=True, database=None, deadline=None)
@given(model=st.sampled_from(sorted(MODELS)), kind=st.sampled_from(KINDS), data=st.data())
def test_broken_artifact_is_rejected_or_read_unchanged(artifacts, model, kind, data):
    path, net, digests, tables = artifacts
    stored, original = tables[model]
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        # casts and extremes may overflow; only the mutation is exempt
        warnings.simplefilter("ignore")
        change = mutate(path, stored, kind, data.draw)
    try:
        loaded = read_groups(path, net, *digests)
    except ModelError as exc:
        assert str(path) in str(exc)
        return
    assert_same_table(loaded, original, change)
