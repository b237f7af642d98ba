"""Exhaustive kite-set oracle and its agreement with the recognizer.

The oracle is the package's independent route to the same verdicts: its
K4 catalogue comes from scanning 4-subsets, its kite sets from subset
search, and its acceptance test from collapsing and running planarity.
Tests here freeze its complete output on small classics (K4, K5, K6),
confirm pruning never changes results, and sweep the dense seven-vertex
corpus against the recognizer.
"""

from __future__ import annotations

from itertools import combinations

import pytest

from nicplanar.embedding import verify_nic
from nicplanar.errors import LimitExceeded
from nicplanar.generate import gen_optimal, gen_sparsest
from nicplanar.graph import new_graph
from nicplanar.k4 import list_k4
from nicplanar.oracle import brute_k4_catalog, oracle_maximal_nic
from nicplanar.recognize import embed_from_star_graph, recognize_optimal


def complete_graph(n):
    return new_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


FLIP_FIXTURE_EDGES = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5),
                      (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)]


class TestBruteCatalog:
    def test_small_cliques(self):
        assert brute_k4_catalog(complete_graph(4)) == ((0, 1, 2, 3),)
        assert len(brute_k4_catalog(complete_graph(5))) == 5
        assert len(brute_k4_catalog(complete_graph(6))) == 15

    def test_no_quads_in_a_cycle(self):
        g = new_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        assert brute_k4_catalog(g) == ()

    def test_flip_fixture_catalog(self):
        g = new_graph(6, FLIP_FIXTURE_EDGES)
        assert brute_k4_catalog(g) == (
            (0, 1, 2, 3), (0, 2, 3, 4), (1, 2, 3, 5), (2, 3, 4, 5))

    @pytest.mark.parametrize("k", [2, 3])
    def test_agrees_with_the_listing_algorithm(self, k):
        g = gen_optimal(k).graph
        assert sorted(brute_k4_catalog(g)) == sorted(list_k4(g).quads)


class TestMaximalVariant:
    def test_k4_has_exactly_the_two_embeddings(self):
        res = oracle_maximal_nic(complete_graph(4))
        assert res.feasible
        assert [ks.quads for ks in res.kite_sets] == [(), ((0, 1, 2, 3),)]
        assert res.examined == 2

    def test_k5_has_five_single_kite_sets(self):
        # any two K4s of K5 share three vertices, so no pair fits, and
        # the empty set fails because K5 itself is not planar
        res = oracle_maximal_nic(complete_graph(5))
        assert [ks.quads for ks in res.kite_sets] == [
            ((0, 1, 2, 3),), ((0, 1, 2, 4),), ((0, 1, 3, 4),),
            ((0, 2, 3, 4),), ((1, 2, 3, 4),)]

    def test_k6_has_none(self):
        # m = 15 exceeds the NIC-planar bound 18(n-2)/5 = 14.4
        res = oracle_maximal_nic(complete_graph(6))
        assert not res.feasible and res.kite_sets == ()

    def test_flip_fixture_kites(self):
        res = oracle_maximal_nic(new_graph(6, FLIP_FIXTURE_EDGES))
        assert [ks.quads for ks in res.kite_sets] == [
            (((0, 1, 2, 3),)), ((0, 2, 3, 4),), ((1, 2, 3, 5),),
            ((2, 3, 4, 5),)]

    def test_family_member_is_unique_even_unrestricted(self):
        g = gen_optimal(2).graph
        res = oracle_maximal_nic(g)
        assert len(res.kite_sets) == 1
        assert len(res.kite_sets[0]) == 6
        assert res.examined == 64

    def test_sparsest_instance_has_one_kite(self):
        g = gen_sparsest(1).graph
        res = oracle_maximal_nic(g)
        assert len(res.kite_sets) == 1
        assert len(res.kite_sets[0]) == 1


class TestOptimalVariant:
    def test_k5_fails(self):
        res = oracle_maximal_nic(complete_graph(5), optimal=True)
        assert not res.feasible and res.examined == 0 and res.pruned > 0

    def test_family_member_unique_cover(self):
        g = gen_optimal(2).graph
        res = oracle_maximal_nic(g, optimal=True)
        rec = recognize_optimal(g)
        assert res.feasible
        assert len(res.kite_sets) == 1
        assert res.kite_sets[0].quads == tuple(sorted(rec.kites))
        assert res.examined == 1

    def test_collapse_failure_matches_recognizer(self):
        # nine K4 blocks whose sharing pattern subdivides K3,3: the only
        # exact cover collapses to a nonplanar star graph, so oracle and
        # recognizer both reject
        blocks = [(0, 3, 6, 8), (0, 4, 9, 11), (0, 5, 12, 13),
                  (1, 3, 12, 14), (1, 4, 6, 7), (1, 5, 9, 10),
                  (2, 3, 10, 11), (2, 4, 15, 16), (2, 5, 7, 8)]
        edges = sorted({tuple(sorted(p)) for blk in blocks
                        for p in combinations(blk, 2)})
        g = new_graph(17, edges)
        res = oracle_maximal_nic(g, optimal=True, limit=17)
        assert not res.feasible
        assert res.examined == 1
        assert not recognize_optimal(g).accepted

    def test_agreement_on_the_dense_seven_vertex_corpus(self):
        full = [(u, v) for u, v in combinations(range(7), 2)]
        for dropped in combinations(range(21), 3):
            edges = [e for i, e in enumerate(full) if i not in dropped]
            g = new_graph(7, edges)
            res = oracle_maximal_nic(g, optimal=True)
            rec = recognize_optimal(g)
            assert res.feasible == rec.accepted
            assert not res.feasible


class TestSearchControls:
    def test_size_limit(self):
        ring = new_graph(13, [(i, (i + 1) % 13) for i in range(13)])
        with pytest.raises(LimitExceeded, match="size limit 12"):
            oracle_maximal_nic(ring)
        res = oracle_maximal_nic(ring, limit=13)
        assert res.feasible  # a cycle is planar with no kites at all
        assert [ks.quads for ks in res.kite_sets] == [()]

    @pytest.mark.parametrize("make, optimal", [
        (lambda: complete_graph(4), False),
        (lambda: complete_graph(5), False),
        (lambda: complete_graph(5), True),
        (lambda: complete_graph(6), False),
        (lambda: new_graph(6, FLIP_FIXTURE_EDGES), False),
        (lambda: gen_sparsest(1).graph, False),
    ])
    def test_pruning_does_not_change_results(self, make, optimal):
        g = make()
        fast = oracle_maximal_nic(g, optimal=optimal)
        slow = oracle_maximal_nic(g, optimal=optimal, prune=False)
        assert fast.kite_sets == slow.kite_sets


class TestSoundness:
    @pytest.mark.parametrize("make, optimal", [
        (lambda: complete_graph(4), False),
        (lambda: complete_graph(5), False),
        (lambda: new_graph(6, FLIP_FIXTURE_EDGES), False),
        (lambda: gen_optimal(2).graph, True),
    ])
    def test_accepted_sets_round_trip(self, make, optimal):
        g = make()
        res = oracle_maximal_nic(g, optimal=optimal)
        assert res.feasible
        for kites in res.kite_sets:
            emb = embed_from_star_graph(g, kites)
            assert emb is not None and verify_nic(emb).ok
            assert len(emb.registry) == len(kites.quads)
