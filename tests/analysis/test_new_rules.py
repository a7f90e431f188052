"""Whole-program rules HTL006-HTL009: fires / clean / suppressed.

The centerpiece is the mutation test: a pristine copy of the shipped
``distributed/`` package is clean, and deleting the ``_check_ownership``
guard from ``cluster.py`` makes HTL006 fire — proof the interprocedural
guard-dominance pass actually tracks the real epoch contract, not a
name coincidence.
"""

import shutil
import textwrap
from pathlib import Path

from repro.analysis import analyze_source, analyze_tree

SRC_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"


def findings(source: str, path: str = "snippet.py", **kwargs):
    return analyze_source(textwrap.dedent(source), path=path, **kwargs)


def rule_ids(found) -> list[str]:
    return [f.rule for f in found]


# --------------------------------------------------------------------- HTL006

CLUSTER_FIXTURE = """
import numpy as np

class StaleEpochError(Exception):
    pass

class RaftGroup:
    def propose_and_wait(self, entry):
        return entry

class Cluster:
    def __init__(self):
        self.group = RaftGroup()
        self.epoch = 0

    def _check_ownership(self, sid):
        if sid != self.epoch:
            raise StaleEpochError(sid)

    def _commit(self, writes):
        return self.group.propose_and_wait(("commit", writes))

    def execute_transaction(self, sid, writes):
        {guard}
        return self._commit(writes)
"""


class TestHTL006EpochGuard:
    def _run(self, guard_line: str):
        source = textwrap.dedent(CLUSTER_FIXTURE).replace("{guard}", guard_line)
        return analyze_source(
            source, path="distributed/cluster.py", rule_ids=["HTL006"]
        )

    def test_guarded_entry_is_clean(self):
        assert self._run("self._check_ownership(sid)") == []

    def test_missing_guard_fires(self):
        found = self._run("pass")
        assert rule_ids(found) == ["HTL006"]
        assert "propose_and_wait" in found[0].message
        assert "_check_ownership" in found[0].message

    def test_conditional_guard_fires(self):
        # A guard behind an `if` does not dominate the sink.
        found = self._run(
            "if sid > 0:\n            self._check_ownership(sid)"
        )
        assert rule_ids(found) == ["HTL006"]

    def test_guard_inside_helper_loop_counts(self):
        source = textwrap.dedent(
            """
            class StaleEpochError(Exception):
                pass

            class RaftGroup:
                def propose_and_wait(self, entry):
                    return entry

            class Cluster:
                def __init__(self):
                    self.groups: list[RaftGroup] = []
                    self.epoch = 0

                def _check_ownership(self, sid):
                    if sid != self.epoch:
                        raise StaleEpochError(sid)

                def execute_transaction(self, by_shard):
                    for sid in by_shard:
                        self._check_ownership(sid)
                    for sid in by_shard:
                        self.groups[sid].propose_and_wait(("commit", sid))
            """
        )
        found = analyze_source(
            source, path="distributed/cluster.py", rule_ids=["HTL006"]
        )
        assert found == []

    def test_only_anchors_on_cluster_module(self):
        source = textwrap.dedent(CLUSTER_FIXTURE).replace("{guard}", "pass")
        assert analyze_source(source, path="other.py", rule_ids=["HTL006"]) == []


class TestHTL006MutationOnShippedTree:
    """Satellite: delete the real guard, the real rule must fire."""

    def _copy_distributed(self, tmp_path) -> Path:
        target = tmp_path / "distributed"
        shutil.copytree(SRC_ROOT / "distributed", target)
        return target

    def test_pristine_copy_is_clean(self, tmp_path):
        self._copy_distributed(tmp_path)
        assert analyze_tree(tmp_path, rule_ids=["HTL006"]) == []

    def test_deleting_check_ownership_fires(self, tmp_path):
        target = self._copy_distributed(tmp_path)
        cluster = target / "cluster.py"
        mutated = []
        for line in cluster.read_text().splitlines():
            stripped = line.lstrip()
            if stripped.startswith("self._check_ownership("):
                indent = line[: len(line) - len(stripped)]
                mutated.append(indent + "pass")
            else:
                mutated.append(line)
        cluster.write_text("\n".join(mutated) + "\n")
        found = analyze_tree(tmp_path, rule_ids=["HTL006"])
        assert found, "HTL006 must fire when the epoch guard is deleted"
        assert {f.rule for f in found} == {"HTL006"}
        assert any("propose" in f.message for f in found)
        # Both the bulk path and the 2PC commit path are exposed.
        entries = {f.message.split(" ")[2] for f in found}
        assert any("bulk_load" in e for e in entries) or any(
            "execute_transaction" in e for e in entries
        )

    def test_mutation_fires_on_new_commit_paths(self, tmp_path):
        """The optimized sinks are covered too: deleting the guard must
        expose the single-shard "commit1p" propose, the piggybacked
        "intent" propose and the commit round's "resolve" propose made
        at decision time (both reached through the coordinator and the
        duck-widened participant adapter)."""
        import ast

        target = self._copy_distributed(tmp_path)
        cluster = target / "cluster.py"
        mutated = []
        for line in cluster.read_text().splitlines():
            stripped = line.lstrip()
            if stripped.startswith("self._check_ownership("):
                indent = line[: len(line) - len(stripped)]
                mutated.append(indent + "pass")
            else:
                mutated.append(line)
        cluster.write_text("\n".join(mutated) + "\n")
        found = analyze_tree(tmp_path, rule_ids=["HTL006"])
        flagged = {f.line for f in found if f.path.endswith("cluster.py")}
        # Locate the two new propose sites by their command tags.
        sites: dict[str, int] = {}
        for node in ast.walk(ast.parse(cluster.read_text())):
            if not isinstance(node, ast.Call):
                continue
            for arg in node.args:
                if (
                    isinstance(arg, ast.Tuple)
                    and arg.elts
                    and isinstance(arg.elts[0], ast.Constant)
                    and arg.elts[0].value in ("commit1p", "intent", "resolve")
                ):
                    sites[arg.elts[0].value] = node.lineno
        assert set(sites) == {"commit1p", "intent", "resolve"}
        assert sites["commit1p"] in flagged, "1PC fast path not covered"
        assert sites["intent"] in flagged, "piggybacked path not covered"
        assert sites["resolve"] in flagged, "decision-time resolve not covered"


# --------------------------------------------------------------------- HTL007

RETRY_FIXTURE = """
class StaleEpochError(Exception):
    pass

class Shard:
    def __init__(self):
        self.epoch = 0

    def apply(self, sid):
        if sid != self.epoch:
            raise StaleEpochError(sid)

class Client:
    def __init__(self):
        self.shard = Shard()

    def write(self, sid):
        return {call}
"""


class TestHTL007RetryDiscipline:
    def _run(self, call: str):
        source = textwrap.dedent(RETRY_FIXTURE).replace("{call}", call)
        return analyze_source(source, rule_ids=["HTL007"])

    def test_public_leak_fires(self):
        found = self._run("self.shard.apply(sid)")
        assert rule_ids(found) == ["HTL007"]
        assert "StaleEpochError" in found[0].message

    def test_retrying_boundary_is_clean(self):
        assert self._run("self.router.retrying(lambda: self.shard.apply(sid))") == []

    def test_catching_handler_is_clean(self):
        source = textwrap.dedent(RETRY_FIXTURE).replace(
            "        return {call}",
            "        try:\n"
            "            return self.shard.apply(sid)\n"
            "        except StaleEpochError:\n"
            "            return None",
        )
        assert analyze_source(source, rule_ids=["HTL007"]) == []

    def test_private_propagator_is_clean(self):
        # Helpers raise through to retrying by design; only the public
        # surface carries the obligation.
        source = textwrap.dedent(RETRY_FIXTURE).replace(
            "    def write(self, sid):",
            "    def _route(self, sid):",
        ).replace("        return {call}", "        return self.shard.apply(sid)")
        assert analyze_source(source, rule_ids=["HTL007"]) == []

    def test_unbounded_retry_loop_fires_both_halves(self):
        found = findings(
            """
            class StaleEpochError(Exception):
                pass

            def spin(shard, sid):
                while True:
                    try:
                        return shard.apply(sid)
                    except StaleEpochError:
                        continue
            """,
            rule_ids=["HTL007"],
        )
        assert rule_ids(found) == ["HTL007", "HTL007"]
        messages = " ".join(f.message for f in found)
        assert "attempt bound" in messages
        assert "backs off" in messages

    def test_bounded_backoff_loop_is_clean(self):
        found = findings(
            """
            class StaleEpochError(Exception):
                pass

            def spin(shard, sid, cost, max_retries=4):
                attempt = 0
                while True:
                    try:
                        return shard.apply(sid)
                    except StaleEpochError:
                        if attempt >= max_retries:
                            raise
                        cost.charge(2.0 ** attempt)
                        attempt += 1
            """,
            rule_ids=["HTL007"],
        )
        assert found == []

    def test_suppression_silences_it(self):
        source = textwrap.dedent(RETRY_FIXTURE).replace(
            "{call}",
            "self.shard.apply(sid)  "
            "# htaplint: ignore[HTL007] -- fixture: error surfaced to test harness",
        )
        assert analyze_source(source, rule_ids=["HTL007"]) == []


# --------------------------------------------------------------------- HTL008

SEGMENT_FIXTURE = """
from dataclasses import dataclass

import numpy as np

@dataclass
class Segment:
    data: np.ndarray

    def decode(self):
        return {expr}
"""


class TestHTL008BufferEscape:
    def _run(self, expr: str):
        source = textwrap.dedent(SEGMENT_FIXTURE).replace("{expr}", expr)
        return analyze_source(source, rule_ids=["HTL008"])

    def test_bare_attribute_return_fires(self):
        found = self._run("self.data")
        assert rule_ids(found) == ["HTL008"]
        assert "by reference" in found[0].message

    def test_basic_slice_return_fires(self):
        found = self._run("self.data[:10]")
        assert rule_ids(found) == ["HTL008"]

    def test_copy_is_clean(self):
        assert self._run("self.data.copy()") == []

    def test_advanced_indexing_is_clean(self):
        # Fancy indexing copies; positions-gather is the codec idiom.
        source = textwrap.dedent(SEGMENT_FIXTURE).replace(
            "    def decode(self):\n        return {expr}",
            "    def take(self, positions):\n        return self.data[positions]",
        )
        assert analyze_source(source, rule_ids=["HTL008"]) == []

    def test_read_only_view_is_clean(self):
        source = textwrap.dedent(SEGMENT_FIXTURE).replace(
            "        return {expr}",
            "        view = self.data.view()\n"
            "        view.flags.writeable = False\n"
            "        return view",
        )
        assert analyze_source(source, rule_ids=["HTL008"]) == []

    def test_cache_put_without_freeze_fires(self):
        found = findings(
            """
            from typing import Mapping

            import numpy as np

            class BatchCache:
                def __init__(self):
                    self._entries = {}

                def put(self, key, batch: Mapping[str, np.ndarray]):
                    self._entries[key] = dict(batch)
            """,
            rule_ids=["HTL008"],
        )
        assert rule_ids(found) == ["HTL008"]
        assert "without freezing" in found[0].message

    def test_cache_get_by_reference_fires(self):
        found = findings(
            """
            from typing import Mapping

            import numpy as np

            class BatchCache:
                def __init__(self):
                    self._entries = {}

                def put(self, key, batch: Mapping[str, np.ndarray]):
                    entry = {}
                    for name, value in batch.items():
                        view = value.view()
                        view.flags.writeable = False
                        entry[name] = view
                    self._entries[key] = entry

                def get(self, key):
                    return self._entries[key]
            """,
            rule_ids=["HTL008"],
        )
        assert rule_ids(found) == ["HTL008"]
        assert "by reference" in found[0].message

    def test_freeze_and_shallow_copy_discipline_is_clean(self):
        found = findings(
            """
            from typing import Mapping

            import numpy as np

            class BatchCache:
                def __init__(self):
                    self._entries = {}

                def put(self, key, batch: Mapping[str, np.ndarray]):
                    entry = {}
                    for name, value in batch.items():
                        view = value.view()
                        view.flags.writeable = False
                        entry[name] = view
                    self._entries[key] = entry

                def get(self, key):
                    entry = self._entries.get(key)
                    if entry is None:
                        return None
                    return dict(entry)
            """,
            rule_ids=["HTL008"],
        )
        assert found == []


# --------------------------------------------------------------------- HTL009


class TestHTL009NondetIteration:
    def test_set_loop_feeding_append_fires(self):
        found = findings(
            """
            def merge(items: set):
                out = []
                for item in items:
                    out.append(item)
                return out
            """,
            rule_ids=["HTL009"],
        )
        assert rule_ids(found) == ["HTL009"]
        assert "sorted" in found[0].message

    def test_sorted_escape_is_clean(self):
        found = findings(
            """
            def merge(items: set):
                out = []
                for item in sorted(items):
                    out.append(item)
                return out
            """,
            rule_ids=["HTL009"],
        )
        assert found == []

    def test_order_free_reduction_is_clean(self):
        found = findings(
            """
            def total(items: set):
                hits = set()
                for item in items:
                    hits.add(item)
                return len(hits)
            """,
            rule_ids=["HTL009"],
        )
        assert found == []

    def test_list_comp_over_set_literal_fires(self):
        found = findings(
            """
            def tags(a, b):
                return [t for t in {a, b}]
            """,
            rule_ids=["HTL009"],
        )
        assert rule_ids(found) == ["HTL009"]

    def test_list_of_set_call_fires(self):
        found = findings(
            """
            def tags(values):
                return list(set(values))
            """,
            rule_ids=["HTL009"],
        )
        assert rule_ids(found) == ["HTL009"]

    def test_sorted_of_set_call_is_clean(self):
        found = findings(
            """
            def tags(values):
                return sorted(set(values))
            """,
            rule_ids=["HTL009"],
        )
        assert found == []

    def test_yield_from_set_loop_fires(self):
        found = findings(
            """
            def emit(seen: set):
                for item in seen:
                    yield item
            """,
            rule_ids=["HTL009"],
        )
        assert rule_ids(found) == ["HTL009"]

    def test_suppression_silences_it(self):
        found = findings(
            """
            def merge(items: set):
                out = []
                for item in items:  # htaplint: ignore[HTL009] -- order folded through a commutative reducer downstream
                    out.append(item)
                return out
            """,
            rule_ids=["HTL009"],
        )
        assert found == []
