"""The public API surface: every export resolves and basic flows work."""

import importlib
import inspect

import pytest


PACKAGES = [
    "repro",
    "repro.common",
    "repro.storage",
    "repro.txn",
    "repro.distributed",
    "repro.sync",
    "repro.query",
    "repro.scheduler",
    "repro.session",
    "repro.engines",
    "repro.bench",
]


FORK_FLAGS = {
    "vectorized", "compressed", "prune", "code_space", "parallel", "morsel_rows",
    "commit_protocol", "use_plan_cache",
}


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), f"{package} lacks __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name} missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_all_is_sorted(package):
    module = importlib.import_module(package)
    exports = list(module.__all__)
    assert exports == sorted(exports), f"{package}.__all__ is not sorted"


@pytest.mark.parametrize("package", PACKAGES)
def test_no_fork_flags_on_exported_classes(package):
    """One implementation per operation: no exported class may grow a
    ``vectorized=`` / ``compressed=`` switch, a scan-pipeline knob, a
    commit-protocol switch or a plan-cache switch (again)."""
    module = importlib.import_module(package)
    for export in module.__all__:
        cls = getattr(module, export)
        if not inspect.isclass(cls):
            continue
        for name, member in inspect.getmembers(cls, callable):
            if name.startswith("_") and name != "__init__":
                continue
            try:
                params = inspect.signature(member).parameters
            except (TypeError, ValueError):  # builtins without signatures
                continue
            forked = FORK_FLAGS & set(params)
            assert not forked, f"{package}.{export}.{name} takes {sorted(forked)}"


def test_one_scan_path():
    """No scan-mode switch, no scan pool, no encoded adapter twin."""
    import importlib.util
    import pkgutil

    import repro.storage

    assert not hasattr(repro.storage, "scan_mode")
    assert importlib.util.find_spec("repro.parallel") is None
    for package in ("repro.engines", "repro.query"):
        root = importlib.import_module(package)
        for info in pkgutil.iter_modules(root.__path__, package + "."):
            module = importlib.import_module(info.name)
            for name, cls in inspect.getmembers(module, inspect.isclass):
                assert "scan_columns_encoded" not in vars(cls), f"{info.name}.{name}"


def test_scan_cache_fences_itself():
    """Version tokens are the scan cache's one invalidation mechanism:
    no table-scoped drop, no ``keep=``, no ``clear``, no lint half
    policing them — and no engine write path that mentions the cache."""
    import ast
    import pkgutil

    import repro.analysis.rules.invalidation as htl002
    import repro.engines
    from repro.query import ScanCache

    assert list(inspect.signature(ScanCache.invalidate).parameters) == ["self"]
    assert not hasattr(ScanCache, "clear")
    assert not hasattr(htl002, "_engine_layer")

    allowed = {"HTAPEngine.__init__", "HTAPEngine.sync", "HTAPEngine.executor"}
    for info in pkgutil.iter_modules(repro.engines.__path__):
        source = inspect.getsource(importlib.import_module(f"repro.engines.{info.name}"))

        def visit(node, where):
            if isinstance(node, ast.ClassDef):
                where = node.name
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where = f"{where}.{node.name}"
            name = getattr(node, "attr", getattr(node, "id", None))
            if name == "scan_cache":
                assert where in allowed or where.endswith(".force_sync"), (
                    f"repro.engines.{info.name}: {where} touches the scan cache"
                )
            for child in ast.iter_child_nodes(node):
                visit(child, where)

        visit(ast.parse(source), "<module>")


def test_engines_say_only_what_differs():
    """One write-set session, one redo loop, one ``TableAccess`` base the
    query layer calls without probing, one delta-fold body."""
    import ast
    from pathlib import Path

    import repro
    from repro.common import Column, DataType, Schema
    from repro.engines import make_engine
    from repro.query import DualStoreTableAccess, TableAccess

    root = Path(repro.__file__).parent
    trees = {p: ast.parse(p.read_text()) for p in root.rglob("*.py")}
    stagers, recovers = [], []
    for path, tree in trees.items():
        if path.parent.name != "engines":
            continue
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            targets = [
                t
                for n in ast.walk(cls)
                if isinstance(n, (ast.Assign, ast.AnnAssign))
                for t in (n.targets if isinstance(n, ast.Assign) else [n.target])
            ]
            if any(ast.unparse(t) == "self._writes" for t in targets):
                stagers.append(cls.name)
            recovers += [
                f"{cls.name}.recover" for n in cls.body
                if isinstance(n, ast.FunctionDef) and n.name == "recover"
            ]
    assert stagers == ["WriteSetSession"]
    assert recovers == ["LoggedEngine.recover"]

    for path in trees:
        assert "getattr(adapter" not in path.read_text(), path
    folders = sorted(
        str(path.relative_to(root))
        for path in trees
        if "collapsed.live_rows" in path.read_text()
    )
    assert folders == ["storage/column_store.py"]

    assert issubclass(DualStoreTableAccess, TableAccess)
    for category in "abcd":
        engine = make_engine(category)
        engine.create_table(Schema("t", [Column("id", DataType.INT64)], ["id"]))
        assert isinstance(engine.catalog["t"], TableAccess), category


def test_one_transaction_implementation():
    """Every engine's session is the one write-set session, and the
    second implementation (a)'s MVCC transaction manager was, and the
    second commit rule ``first_lost_write`` was, stay gone."""
    import repro.txn
    from repro.common import Column, DataType, Schema
    from repro.engines import make_engine
    from repro.engines.base import WriteSetSession

    for category in "abcd":
        engine = make_engine(category)
        engine.create_table(Schema("t", [Column("id", DataType.INT64)], ["id"]))
        assert type(engine.session()) is WriteSetSession, category
    gone = {
        "CommitListener", "Transaction", "TransactionManager", "TxnStatus",
        "recover", "verify_recovery", "first_lost_write",
    }
    assert gone.isdisjoint(repro.txn.__all__)
    assert not any(hasattr(repro.txn, name) for name in gone)


def _source_trees():
    """``repro``'s root and every module's AST, keyed by its path in it."""
    import ast
    from pathlib import Path

    import repro

    root = Path(repro.__file__).parent
    return root, {
        str(p.relative_to(root)): ast.parse(p.read_text()) for p in root.rglob("*.py")
    }


def _callers(trees, function):
    """Modules that call ``function`` by name, as ``f(...)`` or ``x.f(...)``."""
    import ast

    return sorted(
        path
        for path, tree in trees.items()
        for n in ast.walk(tree)
        if isinstance(n, ast.Call)
        and getattr(n.func, "attr", getattr(n.func, "id", None)) == function
    )


def test_one_body_per_column_image_operation():
    """Seal, scan, overlay and merge of a column image each have one
    body: the IMCU holds a ``Segment`` and calls the segment routines,
    fresh reads share ``overlay_delta``, and the engines own the
    ``repro.sync`` mergers instead of copying them."""
    import ast

    import repro.sync

    root, trees = _source_trees()

    def names(tree):
        return {
            getattr(n, "attr", getattr(n, "id", None)) for n in ast.walk(tree)
        } | {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}

    def callers(function):
        return _callers(trees, function)

    kernel = {
        "EncodedColumns", "predicate_mask", "choose_encoding", "build_zone_map",
        "encode_against",
    }
    assert not kernel & names(trees["storage/imcu.py"])
    for routine in ("seal_segment", "scan_segment"):
        assert callers(routine) == ["storage/column_store.py", "storage/imcu.py"]
    assert callers("overlay_arrays") == ["storage/code_batch.py"]
    assert callers("overlay_delta") == [
        "distributed/replica.py", "engines/column_delta.py",
        "engines/disk_row_imcs.py", "storage/imcu.py",
    ]
    for path, tree in trees.items():
        if path.startswith(("engines/", "distributed/")):
            assert not {"from_columns", "merge_per_row_us"} & names(tree), path
    assert not (root / "sync" / "dictionary_merge.py").exists()
    assert not (root / "sync" / "freshness.py").exists()
    assert repro.sync.__all__ == [
        "ColumnStoreRebuilder", "InMemoryDeltaMerger", "LogDeltaMerger",
        "LogMergeStats", "MergeStats", "RebuildStats",
    ]


def test_one_body_per_query_operator():
    """The executor keeps one vectorized body per operator: no
    row-at-a-time twin, no signal to fall back to one."""
    import repro.query.executor as executor

    names = set(vars(executor))
    assert "_Unvectorizable" not in names
    assert "_order_and_limit" not in names
    assert not {name for name in names if name.endswith("_scalar")}


def test_row_codec_lives_in_common_types():
    """A schema's row codec is built in ``common/types.py``: the
    per-dtype rule is called from nowhere else, no per-cell decoder
    outlives it, the B+-tree bisects with the C ``bisect`` module, and
    the calling conventions of the schema and the pivots do not move."""
    import ast

    import repro.common.types
    from repro.common.types import (
        Column, DataType, Schema, columns_to_rows, rows_to_columns,
    )

    _root, trees = _source_trees()
    assert _callers(trees, "validate") == ["common/types.py"]
    assert _callers(trees, "decode_cell") == []
    assert not hasattr(repro.common.types, "decode_cell")
    btree_defs = {
        n.name for n in ast.walk(trees["storage/btree.py"]) if isinstance(n, ast.FunctionDef)
    }
    assert not {name for name in btree_defs if "bisect" in name}, btree_defs

    def sig(fn):
        return str(inspect.signature(fn))

    assert sig(Schema) == (
        "(table_name: 'str', columns: 'Sequence[Column]', primary_key: 'Sequence[str]')"
    )
    assert sig(Schema.validate_row) == "(self, row: 'Sequence[Any]') -> 'Row'"
    assert sig(rows_to_columns) == (
        "(schema: 'Schema', rows: 'Sequence[Row]', names: 'Iterable[str] | None' = None)"
        " -> 'dict[str, np.ndarray]'"
    )
    assert sig(columns_to_rows) == (
        "(schema: 'Schema', arrays: 'dict[str, np.ndarray]') -> 'list[Row]'"
    )
    # key_of takes one row, positionally: a scalar for one key column,
    # a tuple in key order otherwise.
    ints = [Column(n, DataType.INT64) for n in "abc"]
    assert Schema("t", ints, ["b"]).key_of((1, 2, 3)) == 2
    assert Schema("t", ints, ["c", "a"]).key_of([1, 2, 3]) == (3, 1)


def test_version():
    import repro

    assert repro.__version__ == "1.0.0"


def test_make_engine_rejects_unknown():
    from repro import make_engine

    with pytest.raises(ValueError):
        make_engine("z")


def test_engine_info_categories():
    from repro.engines import ENGINE_CLASSES

    assert sorted(ENGINE_CLASSES) == ["a", "b", "c", "d"]
    for cat, cls in ENGINE_CLASSES.items():
        assert cls.info.category == cat
        assert cls.info.description


def test_public_docstrings_present():
    """Every public module carries a real docstring (documentation gate)."""
    for package in PACKAGES:
        module = importlib.import_module(package)
        assert module.__doc__ and len(module.__doc__.strip()) > 20, package


def test_query_force_path_unavailable_raises():
    from repro.common import Column, DataType, PlanningError, Schema
    from repro.engines import make_engine
    from repro.query import AccessPath

    engine = make_engine("a")
    engine.create_table(
        Schema("t", [Column("id", DataType.INT64)], ["id"])
    )
    engine.insert("t", (1,))
    # Engines expose all three paths, so force each and expect success.
    for path in (AccessPath.ROW_SCAN, AccessPath.COLUMN_SCAN):
        result = engine.query("SELECT COUNT(*) FROM t", force_path=path)
        assert result.scalar() == 1


def test_explain_is_text():
    from repro.common import Column, DataType, Schema
    from repro.engines import make_engine

    engine = make_engine("a")
    engine.create_table(Schema("t", [Column("id", DataType.INT64)], ["id"]))
    engine.insert("t", (1,))
    text = engine.explain("SELECT COUNT(*) FROM t")
    assert "scan t via" in text
    assert "estimated total" in text
