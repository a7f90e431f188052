"""Row-granular operations on a column image, against ``tests/oracle``.

Three places address single rows inside a columnar image, and each must
answer exactly what the dict ``TableModel`` answers:

* a **point read** on engine (d) resolves L1 -> L2 -> Main and gathers
  one position per column from whichever codec the segment sealed with;
* an **IMCU scan** on engine (a)'s columnar side masks out the rows its
  SMU marked stale (isolated mode) and patches stale + new keys from the
  row store (fresh mode);
* the **delta overlay** of (b)'s learner, (c)'s IMCS and (d)'s L1 drops
  every scanned row whose key the delta touched and appends the delta's
  live rows.

Sequences are generated from a seed over a key range small enough that
delete-then-reinsert, update-of-an-update and NULL cells all occur.
"""

import json
import random
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.common import (
    ALWAYS_TRUE,
    Between,
    Column,
    Comparison,
    CostModel,
    DataType,
    Schema,
    columns_to_rows,
)
from repro.distributed.cluster import WriteKind, WriteOp
from repro.distributed.replica import ColumnarReplica
from repro.engines import make_engine
from repro.storage import compression
from repro.storage.code_batch import CodeColumn, decode_column
from repro.storage.imcu import InMemoryColumnUnit
from repro.storage.row_store import MVCCRowStore

from ..oracle import TableModel, logged_cost, reference_scan

SCHEMA = Schema(
    "t",
    [
        Column("id", DataType.INT64),
        Column("grp", DataType.INT64),
        Column("rate", DataType.FLOAT64),
        Column("n", DataType.INT64, nullable=True),
        Column("v", DataType.FLOAT64, nullable=True),
        Column("tag", DataType.STRING, nullable=True),
    ],
    ["id"],
)
N_KEYS = 120
SEEDS = range(6)
PREDICATES = (
    ALWAYS_TRUE,
    Comparison("grp", "=", 2),
    Comparison("rate", "<", 2.0),
    Between("id", 20, 70),
    Comparison("tag", "=", "a"),
    Comparison("v", ">=", 2.0),
)


def make_row(rng: random.Random, key: int):
    """``rate`` rarely changes, so it seals as runs (RLE) in any row
    order; the three nullable columns draw NULL one time in four."""
    return (
        key,
        key // 30,
        1.5 if rng.random() < 0.9 else 2.5,
        rng.choice([None, 1, 2, 2**40]),
        rng.choice([None, 0.5, 2.0, 7.25]),
        rng.choice([None, "a", "b", "a"]),
    )


def base_rows(rng: random.Random):
    return [make_row(rng, key) for key in range(0, N_KEYS, 2)]


def generate_writes(rng: random.Random, model: TableModel, n: int):
    """``n`` valid ``(kind, key, row)`` writes against ``model``'s
    current keys, at most one per key (one transaction's write set)."""
    live = {row[0] for row in model.rows()}
    writes, touched = [], set()
    while len(writes) < n:
        key = rng.randrange(N_KEYS)
        if key in touched:
            continue
        touched.add(key)
        if key not in live:
            writes.append(("insert", key, make_row(rng, key)))
        elif rng.random() < 0.4:
            writes.append(("delete", key, None))
        else:
            writes.append(("update", key, make_row(rng, key)))
    return writes


def commit(engine, model: TableModel, writes) -> None:
    session = engine.session()
    for kind, key, row in writes:
        if kind == "delete":
            session.delete("t", key)
        else:
            getattr(session, kind)("t", row)
    ts = session.commit()
    for kind, key, row in writes:
        model.apply(kind, key, row, ts)


def scanned_rows(arrays, columns):
    """A column-scan answer as row tuples sorted by ``id`` (NULLs
    decoded), whatever mix of CodeColumns and ndarrays it came back as."""
    schema = Schema("t", [SCHEMA.column(c) for c in columns], ["id"])
    decoded = {name: decode_column(arrays[name]) for name in columns}
    return sorted(columns_to_rows(schema, decoded), key=lambda r: r[0])


def model_rows(model: TableModel, columns, predicate):
    index = SCHEMA.project(columns)
    return [
        tuple(row[i] for i in index)
        for row in model.rows()
        if predicate.matches(row, SCHEMA)
    ]


# ------------------------------------------------------------ point reads


@pytest.mark.parametrize("seed", SEEDS)
def test_d_point_reads_follow_the_model_across_layers(seed):
    """Every key reads as the model holds it after each commit and each
    merge: fresh in L1, columnar in L2, compacted in Main, tombstoned,
    re-inserted."""
    rng = random.Random(seed)
    engine = make_engine("d")
    engine.create_table(SCHEMA)
    model = TableModel()
    rows = base_rows(rng)
    engine.load_rows("t", rows, batch=25)
    for row in rows:
        model.apply("insert", row[0], row, 0)
    table = engine.table("t")
    codecs_read = set()

    def check():
        session = engine.session()
        held = {row[0]: row for row in model.rows()}
        for key in range(-1, N_KEYS + 1):
            assert session.read("t", key) == held.get(key), (seed, key)
        session.abort()
        for store in (table.l2, table.main):
            for segment in store.segments:
                if segment.live_count():
                    codecs_read.update(e.name for e in segment.encodings.values())

    check()
    for step in range(12):
        commit(engine, model, generate_writes(rng, model, rng.randint(1, 9)))
        check()
        if step % 2:
            table.merge_l1_to_l2()
            check()
        if step % 5 == 4:
            table.merge_l2_to_main()  # compacts Main into one segment
            check()
    engine.force_sync()
    check()
    assert codecs_read == {"plain", "dictionary", "rle", "bitpack"}


def test_d_committed_point_reads_decode_each_segment_once(monkeypatch):
    """A point read decodes a sealed segment's columns once and keeps
    the cells: over the first 1 000 reads of merged state each
    (segment, column) decodes at most once, the next 1 000 decode
    nothing, and after ``merge_l2_to_main`` reads decode only the new
    segment's columns, once each."""
    rng = random.Random(7)
    engine = make_engine("d")
    engine.create_table(SCHEMA)
    model = TableModel()
    rows = base_rows(rng)
    engine.load_rows("t", rows, batch=25)
    for row in rows:
        model.apply("insert", row[0], row, 0)
    engine.force_sync()
    decoded = []
    for name in (
        "PlainEncoding", "DictionaryEncoding", "RunLengthEncoding", "BitPackedEncoding",
    ):
        cls = getattr(compression, name)
        original = cls.decode

        def counted(self, _original=original):
            decoded.append(self)
            return _original(self)

        monkeypatch.setattr(cls, "decode", counted)

    table = engine.table("t")
    commit(engine, model, generate_writes(rng, model, 9))
    table.merge_l1_to_l2()  # reads now resolve in L2 and in Main
    assert table.l2.segments and len(table.main.segments) == 1
    segment_codecs = {
        enc.name
        for segment in table.main.segments
        for enc in segment.encodings.values()
    }
    assert "rle" in segment_codecs

    def where():
        """(store, segment id, column) of every decode so far."""
        at = {
            id(enc): (store_name, segment.segment_id, column)
            for store_name in ("l2", "main")
            for segment in getattr(table, store_name).segments
            for column, enc in segment.encodings.items()
        }
        return [at[id(enc)] for enc in decoded]

    def read(n):
        decoded.clear()
        held = {row[0]: row for row in model.rows()}
        session = engine.session()
        for _ in range(n):
            key = rng.randrange(N_KEYS)
            assert session.read("t", key) == held.get(key)
        session.abort()
        return where()

    # The commit's own point reads count with the first 1 000.
    first = where() + read(1000)
    assert first and len(first) == len(set(first))
    assert {store for store, _sid, _col in first} == {"l2", "main"}
    assert read(1000) == []
    table.merge_l2_to_main()
    (segment,) = table.main.segments
    assert not table.l2.segments
    assert sorted(read(1000)) == sorted(
        ("main", segment.segment_id, column) for column in SCHEMA.column_names
    )
    assert read(1000) == []


# --------------------------------------------------------------- IMCU scan


def imcu_image(imcu: InMemoryColumnUnit):
    """The unit's populated image as the segment list the full-decode
    ``reference_scan`` reads; its SMU's stale keys are the delete bits."""
    (segment,) = imcu.segments
    stale = imcu.smu.stale_keys
    assert segment.delete_mask.tolist() == [k in stale for k in segment.keys]
    assert segment.dead_count == len(stale)
    return SimpleNamespace(schema=imcu.schema, segments=imcu.segments)


#: seed -> [charges, simulated us] of every ``populate`` / ``scan`` call
#: the test below makes, in call order (``ChargeLog.call``) — recorded
#: at the parent of the commit that gave the unit a ``Segment``, so that
#: commit is held to the same charges call by call.  To record again:
#: run the test with ``IMCU_CHARGES`` emptied and dump ``charges``.
IMCU_CHARGES = json.loads(
    (Path(__file__).parent / "imcu_charge_pins.json").read_text()
)


@pytest.mark.parametrize("seed", SEEDS)
def test_imcu_scan_with_stale_and_new_keys(seed):
    rng = random.Random(seed)
    cost, log = logged_cost()
    charges = []

    def call(fn, *args, **kwargs):
        result, charged = log.call(fn, *args, **kwargs)
        charges.append(charged)
        return result

    store = MVCCRowStore(SCHEMA, cost)
    model = TableModel()
    for row in base_rows(rng):
        store.install_insert(row, commit_ts=1)
        model.apply("insert", row[0], row, 1)
    imcu = InMemoryColumnUnit(SCHEMA, store, cost)
    call(imcu.populate, 1)
    ts = 1
    for round_ in range(4):
        for kind, key, row in generate_writes(rng, model, rng.randint(2, 12)):
            ts += 1
            if kind == "insert":
                store.install_insert(row, ts)
            elif kind == "update":
                store.install_update(key, row, ts)
            else:
                store.install_delete(key, ts)
            imcu.on_change(key)
            model.apply(kind, key, row, ts)
        assert imcu.smu.stale_keys and imcu.smu.new_keys
        for predicate in PREDICATES:
            columns = rng.choice((["id", "v"], ["id", "tag", "rate", "n"], SCHEMA.column_names))
            want_arrays, want_keys = reference_scan(
                imcu_image(imcu), columns, predicate
            )
            for encode in (False, True):
                where = (seed, round_, predicate, encode)
                # Isolated mode: the stale image minus its stale rows,
                # byte for byte and in image order.
                isolated = call(
                    imcu.scan, imcu.smu.populate_ts, columns, predicate,
                    patch=False, encode=encode,
                )
                assert isolated.keys == want_keys, where
                for name in columns:
                    got = decode_column(isolated.arrays[name])
                    assert got.dtype == want_arrays[name].dtype, where
                    np.testing.assert_array_equal(got, want_arrays[name], str(where))
                # Fresh mode: the same rows first, then the patch reads;
                # together they are the model.
                fresh = call(imcu.scan, ts, columns, predicate, encode=encode)
                assert fresh.keys[: len(want_keys)] == want_keys, where
                assert sorted(fresh.keys) == [
                    r[0] for r in model_rows(model, ["id"], predicate)
                ], where
                assert scanned_rows(fresh.arrays, columns) == model_rows(
                    model, columns, predicate
                ), where
        if round_ == 1:
            call(imcu.populate, ts)  # a second generation: the position map is rebuilt
    pinned = IMCU_CHARGES[str(seed)]
    for i, (got, want) in enumerate(zip(charges, pinned)):
        assert got == want, f"seed {seed}: call {i} charged {got}, pinned {want}"
    assert len(charges) == len(pinned)


# The paths a one-segment scan kernel has and a hand-rolled gather does
# not: nothing surviving, everything surviving, a pruned unit — each with
# the SMU's stale and new keys still owed to the reader.


def small_unit():
    """Ten populated rows (``tag`` seals as a dictionary, ``v`` plain,
    ``rate`` as one run) and a ``write`` that keeps the model beside them."""
    cost, log = logged_cost()
    store = MVCCRowStore(SCHEMA, cost)
    model = TableModel()
    for k in range(10):
        row = (k, k // 5, 1.5, k % 3, float(k), "ab"[k % 2])
        store.install_insert(row, commit_ts=1)
        model.apply("insert", k, row, 1)
    imcu = InMemoryColumnUnit(SCHEMA, store, cost)
    imcu.populate(1)

    def write(row):
        ts = model.max_ts + 1
        if store.read(row[0], ts) is None:
            store.install_insert(row, ts)
        else:
            store.install_update(row[0], row, ts)
        model.apply("update", row[0], row, ts)
        imcu.on_change(row[0])
        return ts

    return imcu, model, write, log


def assert_empty_and_typed(result, columns):
    assert result.keys == []
    for name in columns:
        got = decode_column(result.arrays[name])
        assert len(got) == 0
        assert got.dtype == SCHEMA.column(name).dtype.numpy_dtype, name


@pytest.mark.parametrize("encode", [False, True])
def test_imcu_pruned_unit_still_owes_its_stale_and_new_keys(encode):
    imcu, model, write, _log = small_unit()
    write((3, 0, 1.5, 1, 100.0, "a"))  # stale, now matches
    write((150, 30, 1.5, 1, 60.0, "b"))  # new, matches
    ts = write((151, 30, 1.5, 1, 1.0, "b"))  # new, does not
    predicate = Comparison("v", ">=", 50.0)  # the image's v stops at 9.0
    columns = ["id", "v", "tag"]
    fresh = imcu.scan(ts, columns, predicate, encode=encode)
    assert (fresh.segments_pruned, fresh.segments_scanned) == (1, 0)
    assert sorted(fresh.keys) == [3, 150]
    assert scanned_rows(fresh.arrays, columns) == model_rows(model, columns, predicate)
    isolated = imcu.scan(1, columns, predicate, patch=False, encode=encode)
    assert (isolated.segments_pruned, isolated.segments_scanned) == (1, 0)
    assert_empty_and_typed(isolated, columns)


@pytest.mark.parametrize("encode", [False, True])
def test_imcu_fully_stale_unit(encode):
    """Every populated key rewritten: the image answers nothing, still
    pays its zone-map check and its predicate, and the patch reads are
    the whole table."""
    imcu, model, write, log = small_unit()
    for k in range(10):
        ts = write((k, 9, 2.5, None, None, None))
    columns = SCHEMA.column_names
    predicate = Comparison("grp", "<=", 9)
    isolated, charged = log.call(
        imcu.scan, 1, columns, predicate, patch=False, encode=encode
    )
    assert (isolated.segments_pruned, isolated.segments_scanned) == (0, 1)
    assert_empty_and_typed(isolated, columns)
    # One zone-map check, then ten values of ``grp`` read for the filter.
    rates = CostModel()
    assert charged == [
        2, rates.zone_map_check_us + 10 * rates.column_scan_per_value_us
    ]
    fresh = imcu.scan(ts, columns, predicate, encode=encode)
    assert fresh.keys == decode_column(fresh.arrays["id"]).tolist()
    assert scanned_rows(fresh.arrays, columns) == model.rows()


@pytest.mark.parametrize("encode", [False, True])
def test_imcu_scan_hands_out_buffers_it_will_not_hand_out_again(encode):
    """Every row surviving is the case where a kernel may return a
    column whole.  Whatever a reader does to the arrays it was handed,
    the next scan answers the same."""
    imcu, model, _write, _log = small_unit()
    columns = SCHEMA.column_names
    want = model.rows()
    for _ in range(2):
        result = imcu.scan(1, columns, ALWAYS_TRUE, encode=encode)
        assert result.keys == list(range(10))
        assert scanned_rows(result.arrays, columns) == want
        for column in result.arrays.values():
            buffer = column.codes if isinstance(column, CodeColumn) else column
            if buffer.flags.writeable:
                buffer[:] = buffer[0]
        result.keys.clear()


def test_imcu_patch_value_outside_the_dictionary():
    """An encoded scan folds patch rows into the code space: a new
    string grows the dictionary, a NULL cannot join it and the column
    comes back decoded."""
    imcu, model, write, _log = small_unit()
    columns = ["id", "tag"]
    ts = write((4, 0, 1.5, 1, 4.0, "zzz"))  # stale
    ts = write((20, 4, 1.5, 1, 4.0, "zz"))  # new
    result = imcu.scan(ts, columns, ALWAYS_TRUE, encode=True)
    tag = result.arrays["tag"]
    assert isinstance(tag, CodeColumn)
    assert tag.dictionary.tolist() == ["a", "b", "zz", "zzz"]
    assert scanned_rows(result.arrays, columns) == model_rows(model, columns, ALWAYS_TRUE)
    ts = write((21, 4, 1.5, 1, 4.0, None))
    result = imcu.scan(ts, columns, ALWAYS_TRUE, encode=True)
    assert not isinstance(result.arrays["tag"], CodeColumn)
    assert scanned_rows(result.arrays, columns) == model_rows(model, columns, ALWAYS_TRUE)


@pytest.mark.parametrize("encode", [False, True])
@pytest.mark.parametrize("predicate", PREDICATES[:4], ids=str)
def test_imcu_keys_answer_row_for_row(predicate, encode):
    """``with_keys=True``: surviving image rows in image order, then the
    patch rows — key ``i`` names row ``i`` of every array — and
    ``with_keys=False`` is the same arrays without the list."""
    imcu, model, write, _log = small_unit()
    write((2, 2, 2.5, None, None, None))
    write((7, 0, 1.5, 2, 0.5, "a"))
    write((30, 2, 1.5, 2, 0.5, "b"))
    ts = write((31, 1, 2.5, 2, 0.5, "a"))
    columns = SCHEMA.column_names
    keyed = imcu.scan(ts, columns, predicate, encode=encode)
    ids = decode_column(keyed.arrays["id"]).tolist()
    assert keyed.keys == ids
    image = [k for k in ids if k not in (2, 7, 30, 31)]
    assert ids[: len(image)] == image == sorted(image)
    assert scanned_rows(keyed.arrays, columns) == model_rows(model, columns, predicate)
    bare = imcu.scan(ts, columns, predicate, with_keys=False, encode=encode)
    assert bare.keys is None
    for name in columns:
        np.testing.assert_array_equal(
            decode_column(bare.arrays[name]), decode_column(keyed.arrays[name])
        )


# ------------------------------------------------------------ delta overlay


def overlay_checks(rng, scan, model, where):
    """``scan(columns, predicate)`` -> arrays must be the model's rows
    for every predicate and a random projection."""
    for predicate in PREDICATES:
        columns = rng.choice((["id", "rate"], ["id", "tag", "v"], SCHEMA.column_names))
        assert scanned_rows(scan(columns, predicate), columns) == model_rows(
            model, columns, predicate
        ), (where, predicate, columns)


@pytest.mark.parametrize("seed", SEEDS)
def test_d_l1_overlay_over_main_and_l2(seed):
    rng = random.Random(seed)
    engine = make_engine("d")
    engine.create_table(SCHEMA)
    model = TableModel()
    rows = base_rows(rng)
    engine.load_rows("t", rows, batch=25)
    for row in rows:
        model.apply("insert", row[0], row, 0)
    engine.force_sync()  # Main
    table = engine.table("t")
    for encode in (False, True):
        commit(engine, model, generate_writes(rng, model, 15))
        table.merge_l1_to_l2()  # L2 holds these; Main lost their keys
        commit(engine, model, generate_writes(rng, model, 20))  # L1
        live, tombstones = table.l1.effective_rows(table.l1.max_commit_ts())
        assert live and tombstones and len(table.l2) and len(table.main)
        overlay_checks(
            rng,
            lambda c, p, e=encode: table.scan_columns(c, p, read_fresh=True, encode=e),
            model,
            (seed, encode),
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_c_unpropagated_delta_over_the_imcs(seed):
    rng = random.Random(seed)
    engine = make_engine("c", propagation_threshold=10_000)
    engine.create_table(SCHEMA)
    model = TableModel()
    rows = base_rows(rng)
    engine.load_rows("t", rows, batch=25)
    for row in rows:
        model.apply("insert", row[0], row, 0)
    engine.force_sync()
    commit(engine, model, generate_writes(rng, model, 12))
    engine.force_sync()  # a second IMCS segment, with dead rows in the first
    engine.read_fresh = True
    for _ in range(2):
        commit(engine, model, generate_writes(rng, model, 20))
        delta = engine._mergers["t"].delta
        live, tombstones = delta.effective_rows(delta.max_commit_ts())
        assert live and tombstones
        pushdowns = engine.pushdowns
        overlay_checks(rng, engine.catalog["t"].scan_columns, model, seed)
        assert engine.pushdowns == pushdowns + len(PREDICATES)


@pytest.mark.parametrize("seed", SEEDS)
def test_b_sealed_log_delta_over_the_learner_store(seed):
    rng = random.Random(seed)
    cost = CostModel()
    replica = ColumnarReplica({"t": SCHEMA}, cost, seal_threshold=8)
    model = TableModel()
    ts = 0

    def apply(writes):
        nonlocal ts
        ts += 1
        ops = [WriteOp(WriteKind(kind), "t", key, row) for kind, key, row in writes]
        replica.learner_apply_batch(0, 0, [("commit1p", ts, ops, ts)])
        for kind, key, row in writes:
            model.apply(kind, key, row, ts)

    apply([("insert", row[0], row) for row in base_rows(rng)])
    replica.merge_deltas()
    apply(generate_writes(rng, model, 12))
    replica.merge_deltas()  # second segment; dead rows in the first
    for encode in (False, True):
        apply(generate_writes(rng, model, 20))
        replica.delta_logs["t"].seal()
        cost.clock.advance_to(replica.landing_us())  # the sealed files land
        live, tombstones = replica.delta_logs["t"].effective_rows()
        assert live and tombstones

        def scan(columns, predicate, e=encode):
            result = replica.scan("t", columns, predicate, encode=e)
            # The learner's scan also answers keys, row for row.
            ids = decode_column(result.arrays["id"]).tolist()
            assert result.keys == ids, (seed, predicate)
            return result.arrays

        overlay_checks(rng, scan, model, (seed, encode))
