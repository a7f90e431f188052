"""Unit tests: the parameterized plan cache and its compiled binders."""

from dataclasses import fields

import pytest

from repro.common.predicate import (
    And,
    Between,
    Comparison,
    InList,
    Not,
    Or,
    Param,
    bind_predicate,
)
from repro.query.access import AccessPath
from repro.query.optimizer import JoinStep, PhysicalPlan, ScanPlan
from repro.query.plan_cache import (
    CachedPlan,
    PlanCache,
    compile_binder,
    param_signature,
)


class FakeEntry:
    """Stands in for CachedPlan at the cache-container level (lookup
    only consumes ``tables`` and ``stats_token``)."""

    def __init__(self, tables=("t",), stats_token=(1,)):
        self.tables = tuple(tables)
        self.stats_token = tuple(stats_token)
        self.param_count = 1


class TestParamSignature:
    def test_types_fingerprint_the_binding(self):
        assert param_signature((1, "x", 2.5)) == ("int", "str", "float")
        assert param_signature(()) == ()
        # The classic cache split: same statement, different types.
        assert param_signature((1,)) != param_signature((1.0,))


class TestCompileBinder:
    """Compiled binders must agree with the generic visitor walk."""

    CASES = [
        Comparison("a", "=", Param(0)),
        Between("a", Param(0), Param(1)),
        Between("a", 5, Param(1)),
        And([Comparison("a", "=", Param(0)), Comparison("b", ">", 7)]),
        And(
            [
                Comparison("a", "=", Param(0)),
                Between("b", Param(1), 99),
                Comparison("c", "!=", "x"),
            ]
        ),
        # Odd shapes fall back to the visitor: Params under OR/NOT/IN.
        Or([Comparison("a", "=", Param(0)), Comparison("b", "=", Param(1))]),
        And([Not(Comparison("a", "=", Param(0)))]),
        InList("a", [Param(0), 3, Param(1)]),
    ]

    @pytest.mark.parametrize("template", CASES)
    def test_matches_bind_predicate(self, template):
        params = (11, 42)
        assert compile_binder(template)(params) == bind_predicate(
            template, params
        )

    def test_constant_template_is_returned_as_is(self):
        template = And([Comparison("a", "=", 1), Comparison("b", "<", 2)])
        binder = compile_binder(template)
        assert binder(()) is template


class TestBind:
    def test_bind_carries_every_plan_field(self):
        """Rebinding replaces the scan predicates and nothing else: every
        other field of ScanPlan / JoinStep / PhysicalPlan — whatever
        fields they have — is the cached plan's own object."""

        def scan(table, column):
            return ScanPlan(
                table, AccessPath.ROW_SCAN, [column],
                Comparison(column, "=", 1), 10, 2.5, candidates=[object()],
            )

        plan = PhysicalPlan(
            query=object(),
            base=scan("t", "a"),
            joins=[JoinStep(scan("u", "b"), (("a", "b"), ("c", "d")))],
            estimated_cost_us=7.0,
            residual_equalities=[("x", "y")],
        )
        entry = CachedPlan(
            plan,
            template_predicates={
                "t": Comparison("a", "=", Param(0)),
                "u": Comparison("b", "=", Param(1)),
            },
            param_count=2,
            tables=("t", "u"),
            stats_token=(1, 1),
        )
        bound = entry.bind((5, 6))

        def same_but(new, old, changed):
            assert type(new) is type(old) and new is not old
            for f in fields(old):
                if f.name not in changed:
                    assert getattr(new, f.name) is getattr(old, f.name), f.name

        same_but(bound, plan, {"base", "joins"})
        same_but(bound.base, plan.base, {"predicate"})
        same_but(bound.joins[0], plan.joins[0], {"scan"})
        same_but(bound.joins[0].scan, plan.joins[0].scan, {"predicate"})
        assert bound.base.predicate == Comparison("a", "=", 5)
        assert bound.joins[0].scan.predicate == Comparison("b", "=", 6)
        # The cached plan itself still holds the bind-peeked predicates.
        assert plan.base.predicate == Comparison("a", "=", 1)


    @pytest.mark.parametrize("cls", [ScanPlan, JoinStep, PhysicalPlan])
    def test_rebound_classes_define_no_post_init(self, cls):
        """``_rebound`` clones a plan node without running ``__init__``,
        which is exact only while none of the three runs code there."""
        assert not hasattr(cls, "__post_init__")


class TestPlanCacheContainer:
    def epoch_of(self, _table):
        return 1

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)

    def test_store_lookup_roundtrip(self):
        cache = PlanCache()
        entry = FakeEntry()
        cache.store("SELECT ?", ("int",), entry)
        assert cache.lookup("SELECT ?", ("int",), self.epoch_of) is entry
        assert (cache.hits, cache.misses) == (1, 0)
        # A different type signature is a different entry.
        assert cache.lookup("SELECT ?", ("float",), self.epoch_of) is None
        assert cache.misses == 1

    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        cache.store("s1", (), FakeEntry())
        cache.store("s2", (), FakeEntry())
        cache.lookup("s1", (), self.epoch_of)     # s2 is now the LRU
        cache.store("s3", (), FakeEntry())
        assert cache.evictions == 1
        assert cache.lookup("s2", (), self.epoch_of) is None
        assert cache.lookup("s1", (), self.epoch_of) is not None

    def test_stats_epoch_fence(self):
        """An entry whose table's epoch moved is dropped as a stale miss."""
        cache = PlanCache()
        cache.store("s", (), FakeEntry(stats_token=(1,)))
        epochs = {"t": 1}
        assert cache.lookup("s", (), epochs.get) is not None
        epochs["t"] = 2
        assert cache.lookup("s", (), epochs.get) is None
        assert cache.stale_misses == 1
        assert len(cache) == 0
        # None epochs (no protocol) never match a stored int token.
        cache.store("s", (), FakeEntry(stats_token=(1,)))
        assert cache.lookup("s", (), lambda t: None) is None
        assert cache.stale_misses == 2

    def test_invalidate_by_table(self):
        cache = PlanCache()
        cache.store("s1", (), FakeEntry(tables=("t", "u")))
        cache.store("s2", (), FakeEntry(tables=("u",)))
        cache.store("s3", (), FakeEntry(tables=("v",)))
        assert cache.invalidate("u") == 2
        assert cache.invalidations == 2
        assert len(cache) == 1
        assert cache.invalidate() == 1
        assert len(cache) == 0

    def test_stats_property(self):
        cache = PlanCache()
        cache.store("s", (), FakeEntry())
        cache.lookup("s", (), self.epoch_of)
        cache.lookup("missing", (), self.epoch_of)
        assert cache.stats == {
            "hits": 1,
            "misses": 1,
            "stale_misses": 0,
            "evictions": 0,
            "invalidations": 0,
            "entries": 1,
        }
