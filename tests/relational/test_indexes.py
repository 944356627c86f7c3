"""Hash-index tests: correctness under mutation, parity with scans."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.algebra import join
from repro.relational.delta import Delta, delta_from_rows
from repro.relational.predicate import AttrEq
from repro.relational.relation import Relation
from repro.relational.schema import Schema

AB = Schema(("A", "B"))
CD = Schema(("C", "D"))


class TestIndexMaintenance:
    def test_create_on_existing_rows(self):
        r = Relation(CD, [(1, 10), (1, 20), (2, 30)])
        r.create_index(("C",))
        index = r.get_index((0,))
        assert index[(1,)] == {(1, 10), (1, 20)}
        assert index[(2,)] == {(2, 30)}

    def test_idempotent(self):
        r = Relation(CD, [(1, 10)])
        r.create_index(("C",))
        first = r.get_index((0,))
        r.create_index(("C",))
        assert r.get_index((0,)) is first

    def test_insert_updates_index(self):
        r = Relation(CD)
        r.create_index(("C",))
        r.insert((5, 50))
        assert r.get_index((0,))[(5,)] == {(5, 50)}

    def test_delete_updates_index(self):
        r = Relation(CD, [(5, 50), (5, 51)])
        r.create_index(("C",))
        r.delete((5, 50))
        assert r.get_index((0,))[(5,)] == {(5, 51)}
        r.delete((5, 51))
        assert (5,) not in r.get_index((0,))

    def test_multiplicity_changes_keep_index(self):
        r = Relation(CD, [(5, 50)])
        r.create_index(("C",))
        r.insert((5, 50), 3)  # count change, row stays
        r.delete((5, 50), 2)
        assert r.get_index((0,))[(5,)] == {(5, 50)}

    def test_composite_index(self):
        r = Relation(CD, [(1, 10), (1, 20)])
        r.create_index(("C", "D"))
        assert r.get_index((0, 1))[(1, 10)] == {(1, 10)}

    def test_copy_drops_indexes(self):
        r = Relation(CD, [(1, 10)])
        r.create_index(("C",))
        assert r.copy().get_index((0,)) is None

    def test_missing_index_is_none(self):
        assert Relation(CD).get_index((0,)) is None


class TestIndexedJoinParity:
    def test_indexed_join_equals_scan_join(self):
        rng = random.Random(5)
        plain = Relation(CD, {(rng.randrange(6), rng.randrange(100)): rng.randint(1, 3)
                              for _ in range(40)})
        indexed = Relation(CD, plain.as_dict())
        indexed.create_index(("C",))
        probe = delta_from_rows(AB, inserts=[(1, 2), (9, 4)], deletes=[(0, 5)])
        cond = AttrEq("B", "C")
        assert join(probe, indexed, cond) == join(probe, plain, cond)

    def test_index_on_left_side(self):
        left = Relation(AB, [(i, i % 3) for i in range(30)])
        left.create_index(("B",))
        probe = Delta(CD, {(1, 99): -2})
        cond = AttrEq("B", "C")
        plain = Relation(AB, left.as_dict())
        assert join(left, probe, cond) == join(plain, probe, cond)

    def test_index_after_mutations_still_correct(self):
        r = Relation(CD, [(1, 10), (2, 20)])
        r.create_index(("C",))
        r.apply_delta(delta_from_rows(CD, inserts=[(3, 30)], deletes=[(1, 10)]))
        probe = Delta(AB, {(0, 3): 1, (0, 1): 1})
        got = join(probe, r, AttrEq("B", "C"))
        assert got.as_dict() == {(0, 3, 3, 30): 1}

    @settings(max_examples=40, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 4), st.integers(0, 4)),
            st.integers(1, 3), max_size=10,
        ),
        st.dictionaries(
            st.tuples(st.integers(0, 4), st.integers(0, 4)),
            st.integers(-2, 2).filter(bool), max_size=6,
        ),
    )
    def test_parity_property(self, base_rows, delta_rows):
        plain = Relation(CD, base_rows)
        indexed = Relation(CD, base_rows)
        indexed.create_index(("C",))
        probe = Delta(AB, delta_rows)
        cond = AttrEq("B", "C")
        assert join(probe, indexed, cond) == join(probe, plain, cond)
        # and with the relation as the probing side
        assert join(indexed, probe.negated(), cond) == join(
            plain, probe.negated(), cond
        )


def reference_index(relation, positions):
    """An index built the plain way: one generator-built key per row."""
    index: dict[tuple, set] = {}
    for row in relation.rows():
        index.setdefault(tuple(row[p] for p in positions), set()).add(row)
    return index


class TestIndexConstruction:
    """``create_index`` builds keys with ``itemgetter``; a one-column key
    stays a 1-tuple, so probes and incremental maintenance agree."""

    RST = Schema(("R", "S", "T"))

    def relation(self, seed=3):
        rng = random.Random(seed)
        rows = {
            (rng.randrange(20), rng.randrange(5), rng.randrange(50)): 1
            for _ in range(200)
        }
        return Relation(self.RST, rows)

    def test_one_and_two_column_keys_match_the_plain_build(self):
        r = self.relation()
        for attrs, positions in (
            (("S",), (1,)),
            (("R", "T"), (0, 2)),
            (("T", "S"), (2, 1)),
        ):
            r.create_index(attrs)
            assert r.get_index(positions) == reference_index(r, positions)
        assert all(
            type(key) is tuple and len(key) == 1 for key in r.get_index((1,))
        )

    def test_no_column_key_buckets_every_row(self):
        r = self.relation()
        r.create_index(())
        assert r.get_index(()) == {(): set(r.rows())}

    def test_backend_copy_on_write_rebuild_matches_the_plain_build(self):
        from repro.relational.predicate import AttrEq
        from repro.relational.view import ViewDefinition
        from repro.sources.memory import MemoryBackend

        view = ViewDefinition(
            "W", ("L", "M"), (Schema(("A", "B")), self.RST),
            join_conditions=(AttrEq("A", "S"), AttrEq("B", "T")),
        )
        backend = MemoryBackend(view, 2, self.relation())
        backend.snapshot()  # shared: the next apply rebuilds the indexes
        delta = Delta(self.RST)
        delta.add((99, 4, 7), +1)
        delta.add(next(iter(backend._relation.rows())), -1)
        backend.apply(delta)
        rebuilt = backend._relation
        for positions in ((1,), (2,)):
            assert rebuilt.get_index(positions) == (
                reference_index(rebuilt, positions)
            )


class TestBackendIndexes:
    def test_memory_backend_indexes_join_columns(self, paper_view, paper_states):
        from repro.sources.memory import MemoryBackend

        backend = MemoryBackend(paper_view, 2, paper_states["R2"])
        # R2[C, D] participates via B=C and D=E: both columns indexed
        assert backend._relation.get_index((0,)) is not None  # C
        assert backend._relation.get_index((1,)) is not None  # D

    def test_indexed_run_matches_reference(self):
        """Whole-run equivalence: harness results are index-agnostic."""
        from repro.harness.config import ExperimentConfig
        from repro.harness.runner import run_experiment
        from repro.consistency.levels import ConsistencyLevel

        result = run_experiment(ExperimentConfig(
            algorithm="sweep", seed=8, n_sources=4, n_updates=20,
            mean_interarrival=1.0, latency=6.0, match_fraction=1.0,
        ))
        assert result.classified_level == ConsistencyLevel.COMPLETE
