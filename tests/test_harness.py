"""Enumeration, exhaustive verification with checkpoints and parallelism,
the built-in golden example, and the gcd witness sweep."""

import hashlib
import json
import math
import random
from multiprocessing import get_context

import pytest
from oracles import oracle_canonical_subset_index

from monomial_lab.betti import regularity
from monomial_lab.complexes import GF2, RATIONALS
from monomial_lab.core import CapacityError, Ideal, InputError, Monomial
from monomial_lab.harness import (
    CheckpointError,
    degree_monomial_masks,
    enumerate_pure_ideals,
    gcd_lemma_sweep,
    open_case_search,
    remark_example,
    verify_range,
    _index_perms,
    _least_in_orbit,
)
from monomial_lab.linearity import is_N2_graph, is_Nk_betti


class TestEnumeration:
    def test_counts(self):
        assert sum(1 for _ in enumerate_pure_ideals(4, 2)) == 63
        assert list(enumerate_pure_ideals(3, 3)) == [
            Ideal(3, (Monomial.of(3, 1, 2, 3),))
        ]
        assert sum(1 for _ in enumerate_pure_ideals(5, 2)) == 1023

    def test_visitor_mode(self):
        seen = []
        count = enumerate_pure_ideals(4, 2, visitor=seen.append)
        assert count == 63 == len(seen)

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


# sha256 of verify_range(n, d, symmetry=..., chunk_size=1000).to_json()
SUMMARY_SHA256 = [
    (4, 2, "off", "9b59b6a1cfaf392598a59a9bd50f8b0a784a106b20bd64811a4a957fb322e9c8"),
    (4, 2, "dedupe", "178ea25df851d60a4bb1e8d0f3c0ca8ccfc86eeb2f4e5916b8c7b6f028b9aa52"),
    (4, 2, "skip", "df7166daa8186aea44f94cc6b134dfddc73101595d1e1a50511e81cfb91d582a"),
    (5, 2, "off", "5c1b1fb1272f65485bbcd1c3714f2a6b09c9f59400a5b636c30e41723ff6c266"),
    (5, 2, "dedupe", "75082d14c9658f8e8d49708062a166458c09940b3af62738761730b8d5c6c832"),
    (5, 2, "skip", "80654b9cb6fa0f1faa9743b8e6c914a0c5f5bb65f7c0b2a3edf05a9ba119ca34"),
    (5, 3, "off", "cda3d349a3b911a26f82de2f4464659dfd7d11d261599fc89045e4cba9a6544a"),
    (5, 3, "dedupe", "50ee26fb6ed39813c598dacfb211b751c2680bc778785dabff5659734b9209e9"),
    (5, 3, "skip", "16f25e899cd299db05eac810137421f835776b19cfd91a4dbabb250ca3800f0b"),
    (4, 3, "off", "2f000854f10ea475c70bd8a584b231c17cc50df52ae1147ce976fe72ff6ee073"),
    (4, 3, "dedupe", "fbf47b921842043d5440125bd0f2dac28ecc4c35c6384462b36b9cebe0687f7f"),
    (4, 3, "skip", "cc4912acc777e2dcc1ef016755eeeb9c2342a6d28bc9b91cda8cecfe4c77d6f7"),
]


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
        dedup = verify_range(4, 2, symmetry="dedupe")
        skip = verify_range(4, 2, symmetry="skip")
        assert dedup.max_reg == skip.max_reg == base.max_reg
        assert len(dedup.extremal) < len(base.extremal)
        assert skip.checked < base.checked
        assert dedup.checked == base.checked  # dedupe never skips work

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
            verify_range(8, 2, symmetry="skip")

    def test_canonical_subset_index(self):
        perms = _index_perms(4, 2)
        pool = degree_monomial_masks(4, 2)
        # the singleton {x3x4} maps to the singleton {x1x2} under relabeling
        hi = 1 << pool.index(0b1100)
        assert not _least_in_orbit(hi, perms)
        assert _least_in_orbit(1, perms)
        assert oracle_canonical_subset_index(hi, perms) == 1

    @pytest.mark.parametrize("n,d", [(4, 2), (5, 2), (5, 3), (4, 3)])
    def test_least_in_orbit_against_orbit_minimum(self, n, d):
        perms = _index_perms(n, d)
        for index in range(1, 1 << len(degree_monomial_masks(n, d))):
            least = oracle_canonical_subset_index(index, perms) == index
            assert _least_in_orbit(index, perms) == least, index

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_skip_6_2_summary_pinned(self, jobs):
        got = verify_range(6, 2, jobs=jobs, symmetry="skip", chunk_size=1000).to_json()
        assert hashlib.sha256(got.encode()).hexdigest() == (
            "1c968ffa2d2ee2301789d460e145d1ca1868c5e53a43072348757088657e9b9a")


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


class TestOpenCaseSearch:
    def test_seeded_and_bounded(self):
        a = open_case_search(6, 3, samples=40, seed=5)
        b = open_case_search(6, 3, samples=40, seed=5)
        assert a.to_json() == b.to_json()
        if a.best is not None:
            assert is_N2_graph(a.best)[0]
            assert a.max_reg == regularity(a.best)
