"""Enumeration, exhaustive verification with checkpoints and parallelism,
the built-in golden example, and the gcd witness sweep."""

import ast
import copy
import hashlib
import itertools
import json
import math
import multiprocessing
import os
import pathlib
import random
import signal
import subprocess
import sys
import tracemalloc
from array import array
from collections.abc import Sequence
from multiprocessing import get_context

import pytest
from oracles import (
    oracle_campaign_bytes,
    oracle_canonical_subset_index,
    oracle_cochordal_complement,
    oracle_gap_free,
    oracle_graph_connected,
    oracle_index_group,
    oracle_orbit,
)

import monomial_lab
from monomial_lab import complexes, core, linearity
from monomial_lab.betti import (
    _band,
    _reg_row,
    _sigma_max,
    _support_regularity,
    regularity,
    regularity_masks,
)
from monomial_lab.complexes import GF2, RATIONALS, FieldSpec, _remap
from monomial_lab.core import (
    CapacityError,
    Ideal,
    InputError,
    Monomial,
    PreconditionError,
    TheoremViolationError,
    squarefree_multiples,
)
from monomial_lab import harness
from monomial_lab.harness import (
    CheckpointError,
    degree_monomial_masks,
    enumerate_pure_ideals,
    gcd_lemma_sweep,
    open_case_search,
    remark_example,
    verify_range,
    _index_perms,
    _linear_reg,
    _lower_image,
    _open_store,
    _subset_gens,
    _sweep_tables,
)
from monomial_lab.linearity import (
    _linear_after,
    gcd_witness,
    is_N2_graph,
    is_Nk_betti,
    n2_verdict_masks,
)


class TestEnumeration:
    def test_counts(self):
        assert sum(1 for _ in enumerate_pure_ideals(4, 2)) == 63
        assert list(enumerate_pure_ideals(3, 3)) == [
            Ideal(3, (Monomial.of(3, 1, 2, 3),))
        ]
        assert sum(1 for _ in enumerate_pure_ideals(5, 2)) == 1023

    def test_capacity_error_names_count(self):
        with pytest.raises(CapacityError) as err:
            list(enumerate_pure_ideals(12, 6))
        assert str(math.comb(12, 6)) in str(err.value)

    def test_subset_index_order(self):
        pool = degree_monomial_masks(4, 2)
        ideals = list(enumerate_pure_ideals(4, 2))
        assert ideals[0].gen_masks == (pool[0],)
        assert ideals[2].gen_masks == (pool[0], pool[1])
        assert len(ideals[-1].gens) == len(pool)

    def test_every_subset_is_minimal(self):
        for I in enumerate_pure_ideals(4, 2):
            assert I.pure_degree() == 2  # constructor enforces the antichain


# sha256 of verify_range(n, d, symmetry=..., chunk_size=1000).to_json(); the
# (6, 2) "off" digest is also the benchmark campaign's golden summary
SUMMARY_SHA256 = [
    (4, 2, "off", "9b59b6a1cfaf392598a59a9bd50f8b0a784a106b20bd64811a4a957fb322e9c8"),
    (4, 2, "orbits", "178ea25df851d60a4bb1e8d0f3c0ca8ccfc86eeb2f4e5916b8c7b6f028b9aa52"),
    (5, 2, "off", "5c1b1fb1272f65485bbcd1c3714f2a6b09c9f59400a5b636c30e41723ff6c266"),
    (5, 2, "orbits", "75082d14c9658f8e8d49708062a166458c09940b3af62738761730b8d5c6c832"),
    (5, 3, "off", "cda3d349a3b911a26f82de2f4464659dfd7d11d261599fc89045e4cba9a6544a"),
    (5, 3, "orbits", "50ee26fb6ed39813c598dacfb211b751c2680bc778785dabff5659734b9209e9"),
    (4, 3, "off", "2f000854f10ea475c70bd8a584b231c17cc50df52ae1147ce976fe72ff6ee073"),
    (4, 3, "orbits", "fbf47b921842043d5440125bd0f2dac28ecc4c35c6384462b36b9cebe0687f7f"),
    (6, 2, "off", "1c33484d7498c87a19e7990dc3acc8a8ff45f9ac90a06bbc9b5101e12f2d9582"),
    (6, 2, "orbits", "67e892bcae970079ecbf6ca5a769085e884539cd24eb9d5b1b6b2d49ac07a9a7"),
]
PINNED = {(n, d, symmetry): digest for n, d, symmetry, digest in SUMMARY_SHA256}


FIELDS = [RATIONALS, GF2, FieldSpec(3)]


def full_store(monomials, d):
    """A restriction store over every subset index, all unknown but index 0."""
    return bytearray([d + 1]) + bytes((1 << len(monomials)) - 1)


class TestRestrictionRecursion:
    """`_linear_reg`, the recursion of `verify_range` over its restriction
    store, against the per-ideal connectivity criterion and regularity scan."""

    @staticmethod
    def expected(gens, d, field):
        return regularity_masks(gens, field) if n2_verdict_masks(gens, d)[0] else 0

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    @pytest.mark.parametrize("n,d", [(4, 2), (5, 2), (4, 3), (5, 3)])
    def test_every_index(self, n, d, field):
        tables = _sweep_tables(n, d)
        monomials = tables[1]
        store = full_store(monomials, d)
        for index in range(1, 1 << len(monomials)):
            got = _linear_reg(index, store, tables, field)
            assert got == self.expected(_subset_gens(monomials, index), d, field), index
            assert store[index] == got + 1

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    @pytest.mark.parametrize("order", ["decreasing", "shuffled"])
    @pytest.mark.parametrize("n,d", [(5, 2), (5, 3)])
    def test_twins_not_known_yet(self, n, d, order, field, monkeypatch):
        """Out of index order, a twin below an index is often not in the
        store yet, and is found by the recursion."""
        tables = _sweep_tables(n, d)
        monomials = tables[1]
        store = full_store(monomials, d)
        indices = list(range(1, len(store)))
        if order == "decreasing":
            indices.reverse()
        else:
            random.Random(f"unknown-twins/{n}/{d}").shuffle(indices)
        unknown = []
        twin_at = harness._twin

        def spy(index, keys, monomials, position):
            twin = twin_at(index, keys, monomials, position)
            if twin < index and not store[twin]:
                unknown.append(index)
            return twin

        monkeypatch.setattr(harness, "_twin", spy)
        for index in indices:
            got = _linear_reg(index, store, tables, field)
            assert got == self.expected(_subset_gens(monomials, index), d, field), index
        assert unknown

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    @pytest.mark.parametrize("n,d", [(6, 3), (7, 2), (6, 4)])
    def test_seeded_indices(self, n, d, field):
        tables = _sweep_tables(n, d)
        monomials = tables[1]
        store = full_store(monomials, d)
        rng = random.Random(f"{n}/{d}")
        linear = 0
        for _ in range(500):
            index = rng.randrange(1, 1 << len(monomials))
            got = store[index] - 1
            if got < 0:
                got = _linear_reg(index, store, tables, field)
            assert got == self.expected(_subset_gens(monomials, index), d, field), index
            linear += got > 0
        assert linear  # the regularity side is exercised too


def twin_of(index, tables):
    """`harness._twin` of `index`, with the keys `_linear_reg` gives it."""
    keys = [(-(index & c).bit_count(), v) for v, c in enumerate(tables[2]) if index & c]
    return harness._twin(index, keys, tables[1], tables[5])


class TestTwin:
    """The twin of an ideal, its support renumbered by decreasing vertex
    degree: its own twin, supported on 0..m-1 with degrees that do not
    increase, and in the orbit of the ideal."""

    @staticmethod
    def check(n, d, indices):
        tables = _sweep_tables(n, d)
        containing = tables[2]
        group = oracle_index_group(n, d) if n <= 6 else None
        for index in indices:
            twin = twin_of(index, tables)
            m = sum(1 for c in containing if index & c)
            assert twin_of(twin, tables) == twin, index
            assert twin.bit_count() == index.bit_count(), index
            supp = 0
            for g in _subset_gens(tables[1], twin):
                supp |= g
            assert supp == (1 << m) - 1, index
            degrees = [(twin & c).bit_count() for c in containing[:m]]
            assert degrees == sorted(degrees, reverse=True), index
            if group:
                assert (oracle_canonical_subset_index(twin, group)
                        == oracle_canonical_subset_index(index, group)), index

    @pytest.mark.parametrize("n,d", [(4, 2), (5, 2), (4, 3), (5, 3)])
    def test_every_index(self, n, d):
        self.check(n, d, range(1, 1 << math.comb(n, d)))

    @pytest.mark.parametrize("n,d", [(6, 3), (7, 2)])
    def test_seeded_indices(self, n, d):
        rng = random.Random(f"twin/{n}/{d}")
        self.check(n, d, [rng.randrange(1, 1 << math.comb(n, d)) for _ in range(500)])


class TestRelabelledSupportScan:
    """The support scan on the generators of the twin against the same
    scan relabelled in vertex order by `_remap`."""

    @staticmethod
    def check(n, d, field, indices):
        tables = _sweep_tables(n, d)
        monomials = tables[1]
        for index in indices:
            gens = _subset_gens(monomials, index)
            supp = 0
            for g in gens:
                supp |= g
            m = supp.bit_count()
            local = _subset_gens(monomials, twin_of(index, tables))
            band = _band(m, d, _reg_row)
            want = d if band is None else _sigma_max(*_remap(supp, gens), field, d, _reg_row, band)
            assert _support_regularity(m, local, field, d) == want, index

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    @pytest.mark.parametrize("n,d", [(5, 2), (5, 3)])
    def test_every_index(self, n, d, field):
        self.check(n, d, field, range(1, 1 << math.comb(n, d)))

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    @pytest.mark.parametrize("n,d", [(7, 2), (6, 3)])
    def test_seeded_indices(self, n, d, field):
        rng = random.Random(f"relabel/{n}/{d}")
        self.check(n, d, field, [rng.randrange(1, 1 << math.comb(n, d)) for _ in range(500)])


class TestEdgeIdealClosedForms:
    """The sweep's values on edge ideals against two closed forms: I(G) is
    linearly presented exactly when G is gap-free (Eisenbud, Green, Hulek
    and Popescu), and has reg 2 exactly when the complement of G is chordal
    (Froberg)."""

    @pytest.mark.parametrize("n", [6, 7])
    def test_seeded_indices(self, n):
        tables = _sweep_tables(n, 2)
        store = full_store(tables[1], 2)
        rng = random.Random(f"closed-forms/{n}")
        seen = set()
        for _ in range(300):
            index = rng.randrange(1, len(store))
            value = store[index] - 1
            if value < 0:
                value = _linear_reg(index, store, tables, RATIONALS)
            edges = _subset_gens(tables[1], index)
            assert (value > 0) == oracle_gap_free(edges), index
            assert (value == 2) == oracle_cochordal_complement(edges), index
            seen.add(value)
        assert seen == {0, 2, 3}

    @pytest.mark.parametrize("n", range(5, 10))
    def test_anticycles_have_reg_3(self, n):
        edges = tuple(sorted((1 << i) | (1 << j) for i in range(n) for j in range(i + 2, n)
                             if (i, j) != (0, n - 1)))
        assert oracle_gap_free(edges) and not oracle_cochordal_complement(edges)
        assert n2_verdict_masks(edges, 2)[0]
        assert regularity_masks(edges, RATIONALS) == 3
        if n <= 7:  # within the sweep's reach
            monomials = degree_monomial_masks(n, 2)
            index = sum(1 << monomials.index(e) for e in edges)
            store = full_store(monomials, 2)
            assert _linear_reg(index, store, _sweep_tables(n, 2), RATIONALS) == 3


class TestConnectivityLemma:
    """Once every one-vertex restriction of an ideal is linearly presented,
    the ideal is linearly presented exactly when its generator graph is
    connected (the `harness` module docstring)."""

    @staticmethod
    def check(n, d, indices):
        monomials = degree_monomial_masks(n, d)
        outcomes = set()
        for index in indices:
            gens = _subset_gens(monomials, index)
            supp = 0
            for g in gens:
                supp |= g
            vertices = [v for v in range(n) if supp >> v & 1]
            if all(n2_verdict_masks(tuple(g for g in gens if not g >> v & 1), d)[0]
                   for v in vertices):
                verdict = n2_verdict_masks(gens, d)[0]
                assert verdict == oracle_graph_connected(gens, d), index
                outcomes.add(verdict)
        return outcomes

    # at (4, 3) every two generators are adjacent, so no graph is disconnected
    @pytest.mark.parametrize("n,d,outcomes", [(4, 3, {True}), (5, 3, {True, False}),
                                              (5, 2, {True, False})])
    def test_every_index(self, n, d, outcomes):
        assert self.check(n, d, range(1, 1 << math.comb(n, d))) == outcomes

    def test_seeded_6_3_indices(self):
        rng = random.Random("connectivity/6/3")
        indices = [rng.randrange(1, 1 << 20) for _ in range(500)]
        assert self.check(6, 3, indices) == {True, False}


class TestSweepTables:
    """The sweep's tables, built once per (n, d): the generator graph of the
    ideal at a subset index is the subgraph of `adjacent` on its bits."""

    @staticmethod
    def check(n, d, indices):
        _, monomials, _, _, adjacent, _ = _sweep_tables(n, d)
        outcomes = set()
        for index in indices:
            connected = linearity._spans(adjacent, index)
            assert connected == oracle_graph_connected(_subset_gens(monomials, index), d), index
            outcomes.add(connected)
        return outcomes

    @pytest.mark.parametrize("n,d", [(5, 2), (5, 3)])
    def test_every_index(self, n, d):
        assert self.check(n, d, range(1, 1 << math.comb(n, d))) == {True, False}

    def test_seeded_6_3_indices(self):
        rng = random.Random("tables/6/3")
        indices = [rng.randrange(1, 1 << 20) for _ in range(500)]
        assert self.check(6, 3, indices) == {True, False}

    def test_one_graph_per_n_d(self, monkeypatch):
        calls = []

        def counted(gens, d):
            calls.append((len(gens), d))
            return linearity._adjacency(gens, d)

        monkeypatch.setattr(harness, "_adjacency", counted)
        _sweep_tables.cache_clear()
        verify_range(5, 3)
        assert calls == [(10, 3)]  # one graph on all ten monomials, no per-support one

    def test_tables_and_images_have_one_home(self):
        """In `harness`, only `_sweep_tables` names `_adjacency`, and only
        `_index_perms` and `_lower_image` name `_image`."""
        tree = ast.parse(pathlib.Path(harness.__file__).read_text(encoding="utf-8"))
        homes = {"_adjacency": set(), "_image": set()}
        for top in tree.body:
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name in homes:
                    homes[name].add(getattr(top, "name", top.lineno))
        assert homes == {"_adjacency": {"_sweep_tables"},
                         "_image": {"_index_perms", "_lower_image"}}


class TestVerifyRange:
    def test_4_2_exact(self):
        s = verify_range(4, 2)
        assert s.total_ideals == 63 == s.checked
        assert s.max_reg == 2 == s.bound
        assert s.violations_empty
        assert s.n2_count == 60  # the three perfect matchings fail
        assert s.cursor == 64

    def test_5_3_clean(self):
        s = verify_range(5, 3)
        assert s.total_ideals == 1023
        assert s.violations_empty
        assert s.max_reg == 3 == s.bound

    def test_pentagon_finding_at_5_2(self):
        """Documented finding: the 12 labelings of the 5-cycle edge ideal
        are linearly presented with regularity 3 > max(2, f(5,2)) = 2."""
        s = verify_range(5, 2)
        assert len(s.violations) == 12
        for I, reg in s.violations:
            assert reg == 3
            assert len(I.gens) == 5
            assert is_N2_graph(I)[0]
            assert is_Nk_betti(I, 2, RATIONALS)
            # every vertex has degree 2: it is a 5-cycle
            for v in range(5):
                deg = sum(1 for g in I.gen_masks if g >> v & 1)
                assert deg == 2

    def test_determinism_across_jobs(self):
        base = verify_range(4, 2, chunk_size=8).to_json()
        assert verify_range(4, 2, jobs=2, chunk_size=8).to_json() == base
        assert verify_range(4, 2, jobs=3, chunk_size=8).to_json() == base

    def test_checkpointed_run_matches_straight(self, tmp_path):
        path = str(tmp_path / "ck.json")
        straight = verify_range(5, 2, chunk_size=128).to_json()
        full = verify_range(5, 2, chunk_size=128, checkpoint_path=path)
        assert full.to_json() == straight
        # the finished checkpoint resumes to an empty tail with the same summary
        resumed = verify_range(5, 2, chunk_size=128, checkpoint_path=path, resume=True)
        assert resumed.to_json() == straight

    def test_resume_from_partial_checkpoint(self, tmp_path):
        path = str(tmp_path / "ck.json")
        straight = verify_range(5, 2, chunk_size=100).to_json()

        # simulate an interrupted run by replaying only three chunks
        from monomial_lab import harness

        state = {
            "cursor": 1, "checked": 0, "n2_count": 0,
            "max_reg": -1, "extremal": [], "violations": [],
        }
        for start in (1, 101, 201):
            partial = harness._verify_chunk((5, 2, None, start, start + 99, 2, "off"))
            state["checked"] += partial["checked"]
            state["n2_count"] += partial["n2_count"]
            if partial["max_reg"] > state["max_reg"]:
                state["max_reg"] = partial["max_reg"]
                state["extremal"] = list(partial["extremal"])
            elif partial["max_reg"] == state["max_reg"] >= 0:
                state["extremal"].extend(partial["extremal"])
            state["violations"].extend(list(v) for v in partial["violations"])
            state["cursor"] = partial["end"] + 1
        harness._write_checkpoint(path, {
            "n": 5, "d": 2, "field": "Q", "chunk_size": 100, "symmetry": "off",
            "cursor": state["cursor"], "checked": state["checked"],
            "n2_count": state["n2_count"], "running_max": state["max_reg"],
            "extremal_so_far": state["extremal"], "violations": state["violations"],
        })
        resumed = verify_range(5, 2, chunk_size=100, checkpoint_path=path, resume=True)
        assert resumed.to_json() == straight

    def test_corrupted_checkpoint(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError):
            verify_range(4, 2, checkpoint_path=str(path), resume=True)

    def test_missing_checkpoint_file(self, tmp_path):
        path = str(tmp_path / "none.json")
        with pytest.raises(CheckpointError, match="cannot read checkpoint"):
            verify_range(4, 2, checkpoint_path=path, resume=True)

    @pytest.mark.parametrize("drop", ["cursor", "symmetry"])
    def test_checkpoint_missing_fields(self, tmp_path, drop):
        path = tmp_path / "ck.json"
        verify_range(4, 2, checkpoint_path=str(path))
        doc = json.loads(path.read_text())
        del doc[drop]
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="missing required fields"):
            verify_range(4, 2, checkpoint_path=str(path), resume=True)

    @pytest.mark.parametrize("key,value", [
        ("cursor", "x"), ("cursor", -5), ("cursor", 0), ("cursor", 10**6), ("cursor", True),
        ("checked", None), ("checked", -1), ("n2_count", 1.5), ("running_max", "a"),
        ("running_max", -2), ("extremal_so_far", 3), ("extremal_so_far", [0]),
        ("extremal_so_far", [64]), ("violations", {}), ("violations", [[5]]),
        ("violations", [[5, "3"]]), ("violations", [[0, 3]]), ("violations", [[5, 3, 1]]),
        # the state describes exactly the indices below the cursor
        ("checked", 62), ("checked", 64), ("n2_count", 64),
        ("stream_length", "x"), ("stream_length", 2.5), ("stream_length", -3),
        ("stream_length", -1), ("stream_length", True), ("stream_length", None),
        ("stream_sha256", 5), ("stream_sha256", "0" * 63), ("stream_sha256", "g" * 64),
        ("stream_sha256", "A" * 64),
    ])
    def test_checkpoint_state_must_fit_the_run(self, tmp_path, key, value):
        path = tmp_path / "ck.json"
        verify_range(4, 2, chunk_size=20, checkpoint_path=str(path))
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=f"has a bad {key}: "):
            verify_range(4, 2, chunk_size=20, checkpoint_path=str(path), resume=True)

    def test_checkpoint_state_at_its_limits(self, tmp_path):
        path = tmp_path / "ck.json"
        straight = verify_range(4, 2, chunk_size=20, checkpoint_path=str(path))
        doc = json.loads(path.read_text())
        assert doc["cursor"] == 64  # total + 1: nothing left to run
        doc.update(extremal_so_far=[1, 63], violations=[[63, 3]])
        path.write_text(json.dumps(doc))
        resumed = verify_range(4, 2, chunk_size=20, checkpoint_path=str(path), resume=True)
        assert (resumed.cursor, resumed.checked) == (straight.cursor, straight.checked)
        assert len(resumed.extremal) == 2 and resumed.violations[0][1] == 3

    @pytest.mark.parametrize("kwargs,message", [
        ({"jobs": 0}, "jobs must be >= 1, got 0"),
        ({"chunk_size": 0}, "chunk_size must be >= 1, got 0"),
        ({"jobs": 1.5}, "jobs must be an int, got 1.5"),
        ({"jobs": True}, "jobs must be an int, got True"),
        ({"chunk_size": 2.5}, "chunk_size must be an int, got 2.5"),
        ({"chunk_size": True}, "chunk_size must be an int, got True"),
    ])
    def test_counts_must_be_ints_in_range(self, kwargs, message):
        with pytest.raises(InputError) as err:
            verify_range(4, 2, **kwargs)
        assert str(err.value) == message

    def test_mismatched_checkpoint(self, tmp_path):
        path = str(tmp_path / "ck.json")
        verify_range(4, 2, checkpoint_path=path)
        with pytest.raises(CheckpointError):
            verify_range(4, 2, chunk_size=7, checkpoint_path=path, resume=True)

    def test_checkpoint_failure_terminates_pool(self, tmp_path, monkeypatch):
        from monomial_lab import harness

        calls = []

        class SpyPool:
            def __init__(self, processes):
                self.pool = get_context("fork").Pool(processes=processes)

            def imap(self, fn, tasks):
                return self.pool.imap(fn, tasks)

            def __getattr__(self, name):  # close, join, terminate
                calls.append(name)
                return getattr(self.pool, name)

        class SpyContext:
            Pool = SpyPool

        def failing_write(path, doc):
            calls.append("write")
            raise OSError("disk full")

        monkeypatch.setattr(harness, "get_context", lambda method: SpyContext)
        monkeypatch.setattr(harness, "_write_checkpoint", failing_write)
        with pytest.raises(OSError, match="disk full"):
            verify_range(5, 2, jobs=2, chunk_size=64, checkpoint_path=str(tmp_path / "ck"))
        # the first merged chunk fails, and the queued ones are dropped, not drained
        assert calls == ["write", "terminate"]

    def test_workers_capped_at_chunk_count(self, monkeypatch):
        from monomial_lab import harness

        requested = []

        class SpyPool:
            def __init__(self, processes):
                requested.append(processes)
                self.pool = get_context("fork").Pool(processes=min(processes, 2))

            def __getattr__(self, name):  # imap, close, join, terminate
                return getattr(self.pool, name)

        class SpyContext:
            Pool = SpyPool

        straight = verify_range(5, 2, chunk_size=512).to_json()
        monkeypatch.setattr(harness, "get_context", lambda method: SpyContext)
        # 1,023 indices in chunks of 512: two tasks
        assert verify_range(5, 2, jobs=64, chunk_size=512).to_json() == straight
        assert requested == [2]

    def test_no_worker_outlives_the_run(self, tmp_path, monkeypatch):
        """Both the clean end and a failed checkpoint write leave no worker."""
        from monomial_lab import harness

        verify_range(5, 2, jobs=2, chunk_size=64)
        assert multiprocessing.active_children() == []

        def failing_write(path, doc):
            raise OSError("disk full")

        monkeypatch.setattr(harness, "_write_checkpoint", failing_write)
        with pytest.raises(OSError, match="disk full"):
            verify_range(5, 2, jobs=2, chunk_size=64, checkpoint_path=str(tmp_path / "ck"))
        assert multiprocessing.active_children() == []

    def test_resume_without_path(self):
        with pytest.raises(CheckpointError):
            verify_range(4, 2, resume=True)

    def test_stream_records(self, tmp_path):
        path = tmp_path / "records.jsonl"
        verify_range(5, 2, stream_path=str(path))
        lines = [json.loads(x) for x in path.read_text().splitlines()]
        assert any(r["type"] == "violation" for r in lines)
        assert all({"type", "index", "reg", "gens"} <= set(r) for r in lines)

    def test_campaign_files_identical_across_jobs(self, tmp_path):
        files = []
        for jobs in (1, 2, 3):
            ck, stream = tmp_path / f"ck{jobs}.json", tmp_path / f"s{jobs}.jsonl"
            verify_range(5, 2, jobs=jobs, chunk_size=64,
                         checkpoint_path=str(ck), stream_path=str(stream))
            files.append((ck.read_bytes(), stream.read_bytes()))
        assert files[0] == files[1] == files[2]

    def test_resume_after_failed_checkpoint_write(self, tmp_path, monkeypatch):
        """A run that dies between a chunk's stream flush and its checkpoint
        write resumes to the straight run's stream, without duplicates."""
        from monomial_lab import harness

        straight_stream = tmp_path / "straight.jsonl"
        straight = verify_range(5, 2, chunk_size=100, stream_path=str(straight_stream))
        ck, stream = str(tmp_path / "ck.json"), tmp_path / "s.jsonl"
        write = harness._write_checkpoint
        calls = []

        def sixth_write_fails(path, doc):
            calls.append(path)
            if len(calls) == 6:
                raise OSError("killed")
            write(path, doc)

        monkeypatch.setattr(harness, "_write_checkpoint", sixth_write_fails)
        with pytest.raises(OSError, match="killed"):
            verify_range(5, 2, chunk_size=100, checkpoint_path=ck, stream_path=str(stream))
        monkeypatch.undo()
        resumed = verify_range(5, 2, chunk_size=100, checkpoint_path=ck,
                               stream_path=str(stream), resume=True)
        assert stream.read_bytes() == straight_stream.read_bytes()
        assert resumed.to_json() == straight.to_json()

    def test_resume_never_extends_the_stream(self, tmp_path):
        ck, plain = str(tmp_path / "ck.json"), str(tmp_path / "plain.json")
        stream = tmp_path / "s.jsonl"
        verify_range(5, 2, chunk_size=100, checkpoint_path=ck, stream_path=str(stream))
        verify_range(5, 2, chunk_size=100, checkpoint_path=plain)
        short = stream.read_bytes()[:100]
        stream.write_bytes(short)
        # the recorded length is longer than the file
        verify_range(5, 2, chunk_size=100, checkpoint_path=ck,
                     stream_path=str(stream), resume=True)
        assert stream.read_bytes() == short
        # a checkpoint with no recorded length leaves the stream alone
        stream.write_bytes(short * 3)
        verify_range(5, 2, chunk_size=100, checkpoint_path=plain,
                     stream_path=str(stream), resume=True)
        assert stream.read_bytes() == short * 3

    def test_resume_refuses_another_longer_stream(self, tmp_path):
        """A finished checkpoint resumed with an unrelated file longer than
        its recorded stream raises, and leaves that file as it was."""
        ck, stream = str(tmp_path / "ck.json"), tmp_path / "s.jsonl"
        verify_range(4, 2, checkpoint_path=ck, stream_path=str(stream))
        written = stream.read_bytes()
        assert json.loads((tmp_path / "ck.json").read_text())["stream_length"] == len(written)
        other = tmp_path / "other.bin"
        data = bytes(random.Random(41).randrange(256) for _ in range(10_000))
        other.write_bytes(data)
        with pytest.raises(CheckpointError, match="does not begin"):
            verify_range(4, 2, checkpoint_path=ck, stream_path=str(other), resume=True)
        assert other.read_bytes() == data
        # its own stream, with bytes past the recorded length, still resumes
        stream.write_bytes(written + data)
        verify_range(4, 2, checkpoint_path=ck, stream_path=str(stream), resume=True)
        assert stream.read_bytes() == written

    def test_symmetry_modes(self):
        base = verify_range(4, 2)
        orbits = verify_range(4, 2, symmetry="orbits")
        assert orbits.max_reg == base.max_reg
        assert orbits.checked == base.checked == 63  # labelled counts
        assert orbits.n2_count == base.n2_count
        assert len(orbits.extremal) < len(base.extremal)

    def test_cross_field_stability(self):
        # the linear-presentation filter is field-free; only max_reg may move
        q = verify_range(4, 2)
        f2 = verify_range(4, 2, field=GF2)
        assert q.n2_count == f2.n2_count
        assert q.checked == f2.checked
        assert f2.field == "GF(2)"

    @pytest.mark.parametrize("n,d,symmetry,digest", SUMMARY_SHA256)
    def test_symmetry_summary_pinned(self, n, d, symmetry, digest):
        """The summary bytes of every symmetry mode, frozen."""
        got = verify_range(n, d, symmetry=symmetry, chunk_size=1000).to_json()
        assert hashlib.sha256(got.encode()).hexdigest() == digest

    def test_symmetry_needs_small_n(self):
        with pytest.raises(InputError):
            verify_range(8, 2, symmetry="orbits")

    @pytest.mark.parametrize("symmetry", ["dedupe", "skip"])
    def test_old_symmetry_modes_are_refused(self, symmetry):
        with pytest.raises(InputError, match="off\\|orbits"):
            verify_range(4, 2, symmetry=symmetry)

    def test_canonical_subset_index(self):
        perms = _index_perms(4, 2)
        pool = degree_monomial_masks(4, 2)
        # the singleton {x3x4} maps to the singleton {x1x2} under relabeling
        hi = 1 << pool.index(0b1100)
        lower = _lower_image(hi, perms)
        assert lower < hi and lower.bit_count() == 1  # another single edge
        assert _lower_image(1, perms) == 0  # {x1x2}, the least of the six edges of K4
        assert _lower_image(hi, ()) == 0  # "off": no index has a lower image
        assert oracle_canonical_subset_index(hi, oracle_index_group(4, 2)) == 1

    @pytest.mark.parametrize("n,d", [(4, 2), (5, 2), (5, 3), (4, 3)])
    def test_least_in_orbit_against_orbit_minimum(self, n, d):
        perms = _index_perms(n, d)
        group = oracle_index_group(n, d)
        identity = tuple(range(len(group[0])))
        assert sorted(perms) == sorted(arr for arr in group if arr != identity)
        total = (1 << len(degree_monomial_masks(n, d))) - 1
        for index in range(1, total + 1):
            least = oracle_canonical_subset_index(index, group) == index
            lower = _lower_image(index, perms)
            assert (lower == 0) == least, index
            if lower:
                assert lower < index and lower in oracle_orbit(index, group), index

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_orbits_6_2_summary_pinned(self, jobs):
        got = verify_range(6, 2, jobs=jobs, symmetry="orbits", chunk_size=1000).to_json()
        assert hashlib.sha256(got.encode()).hexdigest() == PINNED[6, 2, "orbits"]

    @pytest.mark.parametrize("n,d", [(4, 2), (5, 2), (5, 3), (4, 3)])
    def test_orbits_against_off(self, n, d):
        """`orbits` reports the labelled counts and violations of `off`, and
        the extremal ideals of `off` that are the least of their orbits."""
        off = verify_range(n, d)
        orbits = verify_range(n, d, symmetry="orbits", chunk_size=64)
        assert orbits.checked == off.checked == off.total_ideals
        assert orbits.n2_count == off.n2_count
        assert orbits.max_reg == off.max_reg
        assert orbits.violations == off.violations
        assert len(orbits.violations) == (12 if (n, d) == (5, 2) else 0)
        group = oracle_index_group(n, d)
        pool = degree_monomial_masks(n, d)

        def index(ideal):
            return sum(1 << pool.index(m) for m in ideal.gen_masks)

        assert orbits.extremal == tuple(
            I for I in off.extremal
            if oracle_canonical_subset_index(index(I), group) == index(I)
        )

    @pytest.mark.parametrize("n,d", [(5, 2), (4, 3)])
    def test_orbits_against_off_with_lowered_bound(self, n, d, monkeypatch):
        """With the bound lowered below d, every linearly presented ideal
        violates it, so many orbits expand and their members interleave."""
        from monomial_lab import harness

        monkeypatch.setattr(harness, "theorem_bound", lambda n, d: d - 1)
        off = verify_range(n, d)
        orbits = verify_range(n, d, jobs=2, symmetry="orbits", chunk_size=64)
        assert len(off.violations) == off.n2_count
        assert orbits.violations == off.violations


class TestRestrictionStore:
    """The one restriction store of a `verify_range` call: its lifetime, its
    sharing between chunks, and the support scans of twins with the cache
    entries they make."""

    @staticmethod
    def failing_write_after(monkeypatch, k):
        write = harness._write_checkpoint
        calls = []

        def fails(path, doc):
            calls.append(path)
            if len(calls) == k:
                raise OSError("killed")
            write(path, doc)

        monkeypatch.setattr(harness, "_write_checkpoint", fails)

    def test_6_2_scans_few_complexes(self):
        complexes.clear_caches()
        verify_range(6, 2)
        # 15,665 when each support was scanned with its own labels
        assert len(complexes._F2_DATA) <= 500

    def test_6_2_scans_few_supports(self, monkeypatch):
        scans = []
        scan = harness._support_regularity

        def counted(m, local, field, best):
            scans.append(local)
            return scan(m, local, field, best)

        monkeypatch.setattr(harness, "_support_regularity", counted)
        verify_range(6, 2)
        # 19,257 scans, one per linearly presented ideal, before twins were
        # read: now 456 twins are scanned, and 685 ideals lie below their
        # twin, which may lie past the store's end
        assert len(set(scans)) <= 500
        assert len(scans) <= 1200

    def test_no_store_outlives_the_call(self, tmp_path, monkeypatch):
        seen = []
        chunk = harness._verify_chunk

        def spy(task):
            seen.append(len(harness._STORES[5, 2, None]))
            return chunk(task)

        monkeypatch.setattr(harness, "_verify_chunk", spy)
        verify_range(5, 2, chunk_size=100)
        # one store, reaching past the previous chunk when the next one starts
        assert seen == [1] + list(range(101, 1024, 100))
        assert harness._STORES == {}
        monkeypatch.undo()
        self.failing_write_after(monkeypatch, 3)
        with pytest.raises(OSError, match="killed"):
            verify_range(5, 2, chunk_size=100, checkpoint_path=str(tmp_path / "ck.json"))
        assert harness._STORES == {}

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_6_2_summary_pinned_across_jobs(self, jobs):
        got = verify_range(6, 2, jobs=jobs, chunk_size=1000).to_json()
        assert hashlib.sha256(got.encode()).hexdigest() == PINNED[6, 2, "off"]

    @pytest.mark.parametrize("symmetry", ["off", "orbits"])
    def test_6_2_summary_pinned_after_resume(self, tmp_path, monkeypatch, symmetry):
        ck = str(tmp_path / "ck.json")
        self.failing_write_after(monkeypatch, 7)
        with pytest.raises(OSError, match="killed"):
            verify_range(6, 2, chunk_size=1000, symmetry=symmetry, checkpoint_path=ck)
        monkeypatch.undo()
        assert json.loads(open(ck).read())["cursor"] == 6001
        got = verify_range(6, 2, chunk_size=1000, symmetry=symmetry, checkpoint_path=ck,
                           resume=True).to_json()
        assert hashlib.sha256(got.encode()).hexdigest() == PINNED[6, 2, symmetry]

    def test_chunks_out_of_order(self):
        starts = range(1, 1024, 100)

        def task(start):
            return (5, 2, None, start, min(start + 99, 1023), 2, "off")

        with _open_store(5, 2, None):
            in_order = [harness._verify_chunk(task(s)) for s in starts]
        with _open_store(5, 2, None):
            late = harness._verify_chunk(task(201))
            early = harness._verify_chunk(task(1))
        assert (early, late) == (in_order[0], in_order[2])
        with _open_store(5, 2, None):
            assert [harness._verify_chunk(task(s)) for s in reversed(starts)] == in_order[::-1]
        # with no store open, each call keeps one of its own
        assert [harness._verify_chunk(task(s)) for s in reversed(starts)] == in_order[::-1]
        assert harness._STORES == {}


# cases of the differential byte tests: (n, d, chunk_size)
CAMPAIGNS = [(5, 2, 100), (5, 3, 100), (6, 2, 4096), (6, 4, 4096)]


def chunk_partials(n, d, chunk_size):
    """Every chunk of an `off` campaign over Q, run in index order."""
    total = (1 << math.comb(n, d)) - 1
    bound = harness.theorem_bound(n, d)
    with _open_store(n, d, None):
        return [harness._verify_chunk((n, d, None, s, min(s + chunk_size - 1, total), bound, "off"))
                for s in range(1, total + 1, chunk_size)]


class TestIndexedResults:
    """Campaign results kept as subset indices: no `Ideal` is built until
    one is read, and every output byte is the reference rendering's."""

    @staticmethod
    def count_ideals(monkeypatch):
        built = []
        post_init = core.Ideal.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(core.Ideal, "__post_init__", counted)
        return built

    def test_no_ideal_is_built(self, monkeypatch):
        built = self.count_ideals(monkeypatch)
        summary = verify_range(6, 4)
        assert built == []
        assert len(summary.extremal) == 31_737 and summary.violations == ()
        summary.to_json()
        assert built == []
        first = summary.extremal[0]
        assert built == [first] and first.gen_masks == (0b1111,)

    def test_sequence_of_ideals(self):
        summary = verify_range(5, 3, chunk_size=100)
        pool = degree_monomial_masks(5, 3)
        ideals = tuple(Ideal.from_masks(5, [m for i, m in enumerate(pool) if index >> i & 1])
                       for index in summary.extremal.indices)
        extremal = summary.extremal
        assert isinstance(extremal, Sequence) and len(extremal) == len(ideals) > 5
        assert extremal == ideals and ideals == extremal and extremal == list(ideals)
        assert extremal != ideals[1:] and extremal != ideals[:-1] + (ideals[0],)
        assert tuple(extremal) == ideals and extremal[-1] == ideals[-1]
        for cut in (slice(2, 5), slice(None, None, -3), slice(7, 7)):
            assert isinstance(extremal[cut], harness.IndexedIdeals)
            assert extremal[cut] == ideals[cut]
        assert random.Random(0).sample(extremal, 5) == random.Random(0).sample(ideals, 5)
        assert extremal.index(ideals[3]) == 3 and ideals[3] in extremal
        with pytest.raises(IndexError):
            extremal[len(ideals)]
        with pytest.raises(TypeError):
            hash(extremal)

    def test_memory_guard(self):
        """The results of a sweep where nearly every ideal is extremal stay
        small: 31,737 of 32,767 ideals at (6, 4)."""
        complexes.clear_caches()
        tracemalloc.start()
        try:
            verify_range(6, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * 2**20, peak

    @pytest.mark.parametrize("n,d,chunk_size", CAMPAIGNS)
    def test_every_byte_against_reference(self, tmp_path, monkeypatch, n, d, chunk_size):
        """Summary JSON, stream and final checkpoint for jobs 1 and 2 and
        after a resume from the second chunk's checkpoint."""
        stamp = {"n": n, "d": d, "field": "Q", "chunk_size": chunk_size, "symmetry": "off"}
        want = oracle_campaign_bytes(stamp, harness.theorem_bound(n, d),
                                     chunk_partials(n, d, chunk_size))

        def run(name, jobs=1, resume=False):
            ck, stream = tmp_path / f"{name}.json", tmp_path / f"{name}.jsonl"
            summary = verify_range(n, d, jobs=jobs, chunk_size=chunk_size, resume=resume,
                                   checkpoint_path=str(ck), stream_path=str(stream))
            return summary.to_json(), stream.read_bytes(), ck.read_bytes()

        assert run("jobs1") == want
        assert run("jobs2", jobs=2) == want
        TestRestrictionStore.failing_write_after(monkeypatch, 3)
        with pytest.raises(OSError, match="killed"):
            run("resumed")
        monkeypatch.undo()
        assert json.loads((tmp_path / "resumed.json").read_text())["cursor"] == 2 * chunk_size + 1
        assert run("resumed", resume=True) == want

    @pytest.mark.parametrize("seed", range(6))
    def test_merge_against_list_fold(self, seed):
        """`_merge` folds like list concatenation, never mutates its
        arguments, and shares the arrays of the state it extends."""
        rng = random.Random(f"merge/{seed}")
        state = {**harness._START_STATE, "extremal_so_far": (array("q"),)}
        plain = dict(harness._START_STATE)
        end = 0
        for _ in range(rng.randint(1, 30)):
            size = rng.randint(1, 50)
            top = rng.choice([-1, 2, 3, 3, 4])
            indices = range(end + 1, end + size + 1)
            extremal = sorted(rng.sample(indices, rng.randint(1, size))) if top >= 0 else []
            violations = [(i, 5) for i in rng.sample(indices, rng.randint(0, min(2, size)))]
            partial = {"start": end + 1, "end": end + size, "checked": size,
                       "n2_count": rng.randint(len(extremal), size), "max_reg": top,
                       "extremal": extremal, "violations": sorted(violations)}
            end += size
            before = copy.deepcopy((state, partial))
            merged = harness._merge(state, partial)
            assert (state, partial) == before
            if merged["running_max"] == state["running_max"] == top:
                assert all(a is b for a, b in zip(state["extremal_so_far"],
                                                  merged["extremal_so_far"]))
            plain = {
                "cursor": partial["end"] + 1,
                "checked": plain["checked"] + size,
                "n2_count": plain["n2_count"] + partial["n2_count"],
                "running_max": max(plain["running_max"], top),
                "extremal_so_far": (extremal if top > plain["running_max"]
                                    else plain["extremal_so_far"] + extremal
                                    if top == plain["running_max"] >= 0
                                    else plain["extremal_so_far"]),
                "violations": plain["violations"] + [list(v) for v in partial["violations"]],
            }
            state = merged
            flat = list(itertools.chain.from_iterable(state["extremal_so_far"]))
            assert {**state, "extremal_so_far": flat} == plain


class TestOrbitsCampaign:
    """Campaign files in `orbits` mode at (5,2) with chunks of 64, so that
    the pentagon orbit's members fall outside its representative's chunk:
    each member is written in its own chunk, as under `off`."""

    @staticmethod
    def run(tmp_path, name, jobs=1, resume=False):
        ck, stream = tmp_path / f"{name}.json", tmp_path / f"{name}.jsonl"
        summary = verify_range(5, 2, jobs=jobs, symmetry="orbits", chunk_size=64,
                               checkpoint_path=str(ck), stream_path=str(stream),
                               resume=resume)
        return summary.to_json(), stream.read_bytes(), ck.read_bytes()

    @staticmethod
    def crash_at_write(monkeypatch, k, run):
        """Run `run` with its k-th checkpoint write failing."""
        from monomial_lab import harness

        write = harness._write_checkpoint
        calls = []

        def fails(path, doc):
            calls.append(path)
            if len(calls) == k:
                raise OSError("killed")
            write(path, doc)

        monkeypatch.setattr(harness, "_write_checkpoint", fails)
        with pytest.raises(OSError, match="killed"):
            run()
        monkeypatch.undo()

    def test_files_identical_across_jobs(self, tmp_path):
        runs = [self.run(tmp_path, f"jobs{jobs}", jobs) for jobs in (1, 2, 3)]
        assert runs[0] == runs[1] == runs[2]
        summary, stream, _ = runs[0]
        assert hashlib.sha256(summary.encode()).hexdigest() == PINNED[5, 2, "orbits"]
        records = [json.loads(line) for line in stream.splitlines()]
        pentagons = [r["index"] for r in records if r["type"] == "violation"]
        assert len(pentagons) == 12 and pentagons == sorted(pentagons)
        assert 193 <= pentagons[0] <= 256  # the representative, in the 4th chunk
        assert (pentagons[-1] - 1) // 64 > 3

    @pytest.mark.parametrize("failing_write", [4, 6])
    def test_resume_after_failed_checkpoint_write(self, tmp_path, monkeypatch, failing_write):
        straight = self.run(tmp_path, "straight")
        self.crash_at_write(monkeypatch, failing_write, lambda: self.run(tmp_path, "broken"))
        assert self.run(tmp_path, "broken", resume=True) == straight

    @pytest.mark.parametrize("old", ["dedupe", "skip"])
    def test_refuses_checkpoint_of_removed_mode(self, tmp_path, monkeypatch, old):
        """A half-finished checkpoint stamped with a removed mode holds
        counts `orbits` cannot continue, and is refused by its stamp."""
        self.crash_at_write(monkeypatch, 6, lambda: self.run(tmp_path, "old"))
        ck, stream = tmp_path / "old.json", tmp_path / "old.jsonl"
        ck.write_text(json.dumps({**json.loads(ck.read_text()), "symmetry": old}))
        before = ck.read_bytes(), stream.read_bytes()
        with pytest.raises(CheckpointError, match=old):
            self.run(tmp_path, "old", resume=True)
        assert (ck.read_bytes(), stream.read_bytes()) == before

    @pytest.mark.parametrize("key", ["checked", "violations"])
    def test_refuses_checkpoint_past_its_cursor(self, tmp_path, monkeypatch, key):
        """A checkpoint counting whole orbits, as `orbits` once wrote them,
        holds counts and violations past its cursor.  Resuming it would
        count them twice, so it is refused, and its files are left as they
        were."""
        _, straight, _ = self.run(tmp_path, "straight")
        pentagons = [r["index"] for r in map(json.loads, straight.splitlines())
                     if r["type"] == "violation"]
        self.crash_at_write(monkeypatch, 6, lambda: self.run(tmp_path, "old"))
        ck, stream = tmp_path / "old.json", tmp_path / "old.jsonl"
        doc = json.loads(ck.read_text())
        assert doc["cursor"] == 321 and doc["checked"] == 320
        assert any(i >= 321 for i in pentagons)
        # the counts and violations seen in such a checkpoint at this cursor
        old = {"checked": 997, "violations": [[i, 3] for i in pentagons]}
        ck.write_text(json.dumps({**doc, key: old[key]}))
        before = ck.read_bytes(), stream.read_bytes()
        with pytest.raises(CheckpointError, match=f"has a bad {key}: "):
            self.run(tmp_path, "old", resume=True)
        assert (ck.read_bytes(), stream.read_bytes()) == before


# A `verify_range(5, 2)` run in chunks of 64 that SIGKILLs itself at the
# k-th checkpoint write: before it, when the k-th chunk's stream records are
# already flushed, or right after it.  argv: k, before|after, checkpoint, stream.
KILLED_RUN = """
import os, signal, sys
from monomial_lab import harness

k, when, ck, stream = int(sys.argv[1]), sys.argv[2], sys.argv[3], sys.argv[4]
write = harness._write_checkpoint
calls = []

def write_then_kill(path, doc):
    calls.append(path)
    if len(calls) == k and when == "before":
        os.kill(os.getpid(), signal.SIGKILL)
    write(path, doc)
    if len(calls) == k and when == "after":
        os.kill(os.getpid(), signal.SIGKILL)

harness._write_checkpoint = write_then_kill
harness.verify_range(5, 2, jobs=1, chunk_size=64, checkpoint_path=ck, stream_path=stream)
"""


class TestKilledCampaign:
    """A campaign process killed with SIGKILL around a checkpoint write
    resumes to the straight run's summary, stream and checkpoint bytes.
    jobs=1, so no pool worker outlives the killed process."""

    @staticmethod
    def run(tmp_path, name, resume=False):
        ck, stream = tmp_path / f"{name}.json", tmp_path / f"{name}.jsonl"
        summary = verify_range(5, 2, jobs=1, chunk_size=64, checkpoint_path=str(ck),
                               stream_path=str(stream), resume=resume)
        return summary.to_json(), stream.read_bytes(), ck.read_bytes()

    @pytest.mark.parametrize("k,when", [(4, "before"), (6, "after")])
    def test_resume_after_sigkill(self, tmp_path, k, when):
        straight = self.run(tmp_path, "straight")
        ck, stream = tmp_path / "killed.json", tmp_path / "killed.jsonl"
        src = os.path.dirname(os.path.dirname(monomial_lab.__file__))
        proc = subprocess.run([sys.executable, "-c", KILLED_RUN, str(k), when, str(ck), str(stream)],
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        doc = json.loads(ck.read_text())
        assert doc["cursor"] == (k - 1 if when == "before" else k) * 64 + 1
        # killed before the write, the stream holds the k-th chunk's records
        # that the checkpoint lacks
        assert (stream.stat().st_size > doc["stream_length"]) == (when == "before")
        assert self.run(tmp_path, "killed", resume=True) == straight


class TestRemarkExample:
    def test_frozen_values(self):
        I, f, g = remark_example()
        assert I.ambient == 8 and len(I.gens) == 5
        assert str(f) == "x1*x2*x5*x6" and str(g) == "x1*x2"
        assert I.contains(f)
        assert regularity(I) == 4
        assert is_Nk_betti(I, 9)


class TestGcdSweep:
    def test_4_2_no_violations(self):
        report = gcd_lemma_sweep(4, 2)
        assert report.violations_empty
        assert report.ideals == 63
        assert report.pairs_checked > 0
        assert report.witnesses_found == report.pairs_checked

    def test_json(self):
        report = gcd_lemma_sweep(4, 2)
        doc = json.loads(report.to_json())
        assert doc["violations"] == []

    @pytest.mark.parametrize("n,d,digest", [
        (4, 2, "49bafdc3180865fe93b5ac27b823da326248901cbe41ad781baf6d1c93866143"),
        (5, 2, "724232368c36dcc0b002f8346663666e23d614b76a5d0c697b991a14e5faa007"),
        (5, 3, "4ca2fdc8791d103d4d80ee5864cbbbebfdcc02a29dc9462399142ce6eab25b20"),
        (4, 3, "6ec7eb125997928cc9a54c5b62f5725dfd0dd12a15b751063476f356d0b915fa"),
        (6, 2, "055aa081c4a33f8d607696edf2249d0c1d84c51ddec1a8b343c5656da0ae52e1"),
    ])
    def test_report_pinned(self, n, d, digest):
        report = gcd_lemma_sweep(n, d).to_json()
        assert hashlib.sha256(report.encode()).hexdigest() == digest

    @pytest.mark.parametrize("n,d", [(6, 2), (5, 3)])
    def test_store_verdicts_against_truncations(self, n, d, monkeypatch):
        """The verdicts of the sweep's store at `index | multiples[f]`
        against the connectivity criterion on each truncation of I + (f),
        and the sweep's witnesses against `gcd_witness`."""
        stores = []
        recurse = harness._linear_reg

        def spy(index, store, tables, field):
            assert field == GF2 and tables is _sweep_tables(n, d)
            stores.append(store)
            return recurse(index, store, tables, field)

        monkeypatch.setattr(harness, "_linear_reg", spy)
        assert gcd_lemma_sweep(n, d).violations_empty
        monkeypatch.undo()
        store = stores[0]
        assert all(s is store for s in stores) and len(store) == 1 << math.comb(n, d)
        monomials = degree_monomial_masks(n, d)
        position = {m: i for i, m in enumerate(monomials)}

        def linear(index):  # filled the same way when the sweep did not need it
            return recurse(index, store, _sweep_tables(n, d), GF2) > 0

        def truncation_index(index, g):
            return index | sum(1 << position[m] for m in squarefree_multiples(g, n, d))

        rng = random.Random(f"gcd-store/{n}/{d}")
        candidates = [f for deg in range(2, d + 1) for f in degree_monomial_masks(n, deg)]
        hypotheses = 0
        for _ in range(150):
            index = rng.randrange(1, len(store))
            gens = _subset_gens(monomials, index)
            I = Ideal.from_masks(n, gens)
            for f in candidates:
                verdict = linear(truncation_index(index, f))
                assert verdict == _linear_after(gens, f, n, d), (index, f)
                if all(f & ~g == 0 for g in gens) or not verdict:
                    with pytest.raises(PreconditionError):
                        gcd_witness(I, Monomial(n, f))
                    continue
                hypotheses += 1
                found = any((f1 & f).bit_count() == f.bit_count() - 1
                            and linear(truncation_index(index, f1 & f)) for f1 in gens)
                try:
                    gcd_witness(I, Monomial(n, f))
                except TheoremViolationError:
                    assert not found, (index, f)
                else:
                    assert found, (index, f)
        assert hypotheses

    def test_no_connectivity_scans(self, monkeypatch):
        """The sweep and `verify_range` decide linear presentation from the
        restriction store alone, with no `n2_verdict_masks` call."""
        calls = []

        def counted(gens, d):
            calls.append(gens)
            return n2_verdict_masks(gens, d)

        monkeypatch.setattr(harness, "n2_verdict_masks", counted)
        monkeypatch.setattr(linearity, "n2_verdict_masks", counted)
        gcd_lemma_sweep(5, 2)
        verify_range(5, 3)
        assert calls == []
        open_case_search(5, 3, samples=3)
        assert calls  # the count sees the calls that are made

    def test_only_the_open_case_search_calls_n2_verdict_masks(self):
        """No code in `harness` but `open_case_search` names
        `n2_verdict_masks`: the exhaustive sweeps read the one store
        verdict."""
        tree = ast.parse(pathlib.Path(harness.__file__).read_text(encoding="utf-8"))
        allowed = {id(node) for fn in tree.body
                   if isinstance(fn, ast.FunctionDef) and fn.name == "open_case_search"
                   for node in ast.walk(fn)}
        offenders = [
            node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id == "n2_verdict_masks"
                or isinstance(node, ast.Attribute) and node.attr == "n2_verdict_masks")
            and id(node) not in allowed
        ]
        assert offenders == []


class TestOpenCaseSearch:
    def test_seeded_and_bounded(self):
        a = open_case_search(6, 3, samples=40, seed=5)
        b = open_case_search(6, 3, samples=40, seed=5)
        assert a.to_json() == b.to_json()
        if a.best is not None:
            assert is_N2_graph(a.best)[0]
            assert a.max_reg == regularity(a.best)

    @pytest.mark.parametrize("n,d", [(6, 3), (8, 2), (10, 4), (12, 5)])
    def test_samples_match_the_listing(self, n, d, monkeypatch):
        """Every sample is the one drawn from the listed monomials with the
        same seed: same sizes, same monomials, same RNG use."""
        pool = degree_monomial_masks(n, d)
        assert [harness._colex_mask(i, n, d) for i in range(len(pool))] == list(pool)
        seen = []
        monkeypatch.setattr(harness, "n2_verdict_masks",
                            lambda gens, d: seen.append(gens) or (False, None))
        for seed in range(20):
            seen.clear()
            open_case_search(n, d, samples=15, seed=seed)
            rng = random.Random(seed)
            want = [tuple(sorted(rng.sample(pool, rng.randint(1, min(len(pool), 4 * n)))))
                    for _ in range(15)]
            assert seen == want, (n, d, seed)

    @pytest.mark.parametrize("samples,message", [
        (-1, "samples must be >= 0, got -1"),
        (1.5, "samples must be an int, got 1.5"),
        (False, "samples must be an int, got False"),
    ])
    def test_samples_must_be_a_count(self, samples, message):
        with pytest.raises(InputError) as err:
            open_case_search(6, 3, samples=samples)
        assert str(err.value) == message

    def test_monomials_are_not_listed(self, monkeypatch):
        """C(40, 20) is about 1.4e11 monomials; the search must not list them."""
        def refuse(n, d):
            raise AssertionError(f"listed all degree-{d} monomials on {n} variables")

        monkeypatch.setattr(harness, "degree_monomial_masks", refuse)
        for n, d in ((26, 10), (40, 20)):
            report = open_case_search(n, d, samples=5, seed=1)
            assert report.samples == 5 and 0 <= report.n2_count <= 5
