"""Generator families: frozen sizes, density targets, and verifier gates."""

from collections import Counter

import pytest

import nicplanar.generate as generate_module
import nicplanar.graph as graph_module
from nicplanar.embedding import (
    NicEmbedding,
    embed_with_crossings,
    embedding_to_json,
    trace_faces,
    verify_maximal_embedding,
    verify_nic,
)
from nicplanar.errors import InvalidParameters, KTooSmall
from nicplanar.generate import (
    gen_densest_intermediate,
    gen_nested_k5,
    gen_optimal,
    gen_rac_counterexample,
    gen_sparsest,
    nested_k5_variant_count,
    np_gadget_embedding,
    np_gadget_transform,
)
from nicplanar.graph import is_biconnected, new_graph
from nicplanar.k4 import list_k4

from bruteforce import brute_k4_sets


def complete_graph(n):
    return new_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def assert_matches_planarity_path(inst):
    # the member lists its own faces; the planarity path on the same edges
    # and crossings must give the same embedding, orientation included
    emb = inst.embedding
    reference = embed_with_crossings(emb.base,
                                     [e.pair for e in emb.registry])
    assert embedding_to_json(emb) == embedding_to_json(reference), inst.params


class TestOptimalFamily:
    @pytest.mark.parametrize("k", [2, 3, 5, 10])
    def test_counts(self, k):
        inst = gen_optimal(k)
        g = inst.graph
        assert g.n == 5 * k + 2
        assert g.m == 18 * k
        assert len(inst.embedding.registry) == 3 * k
        # the optimal density identity, exact integers
        assert 5 * g.m == 18 * (g.n - 2)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_fully_triangulated(self, k):
        emb = gen_optimal(k).embedding
        faces = trace_faces(emb)
        assert len(faces) == 16 * k
        assert all(len(f) == 3 for f in faces)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_verifies_maximal(self, k):
        emb = gen_optimal(k).embedding
        assert verify_nic(emb).ok
        assert verify_maximal_embedding(emb).ok

    def test_drum_rotations_match_planarity_path(self):
        for k in range(2, 41):
            assert_matches_planarity_path(gen_optimal(k))

    def test_k2_has_exactly_six_k4(self):
        g = gen_optimal(2).graph
        assert len(brute_k4_sets(g)) == 6

    def test_too_small(self):
        with pytest.raises(KTooSmall):
            gen_optimal(1)


class TestSparsestFamily:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
    def test_counts(self, k):
        inst = gen_sparsest(k)
        g = inst.graph
        assert g.n == 5 * k + 2
        assert g.m == 16 * k
        assert len(inst.embedding.registry) == k
        # the sparsest-maximal density identity
        assert 5 * g.m == 16 * (g.n - 2)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_verifies_maximal(self, k):
        emb = gen_sparsest(k).embedding
        faces = trace_faces(emb)
        assert all(len(f) == 3 for f in faces)
        assert verify_nic(emb).ok
        assert verify_maximal_embedding(emb).ok

    def test_too_small(self):
        with pytest.raises(KTooSmall):
            gen_sparsest(0)


class TestIntermediateDensest:
    # the full (k, i) matrix with frozen sizes; every instance must hit
    # the intermediate-density ceiling m = floor(18 (n - 2) / 5) exactly
    CASES = [
        (2, 1, 13, 39),
        (3, 1, 18, 57),
        (4, 2, 24, 79),
        (8, 2, 44, 151),
        (2, 3, 15, 46),
        (3, 3, 20, 64),
        (2, 4, 16, 50),
        (6, 4, 36, 122),
    ]

    @pytest.mark.parametrize("k,i,n,m", CASES)
    def test_counts_and_ceiling(self, k, i, n, m):
        inst = gen_densest_intermediate(k, i)
        g = inst.graph
        assert (g.n, g.m) == (n, m)
        assert (g.n - 2) % 5 == i
        assert g.m == 18 * (g.n - 2) // 5

    @pytest.mark.parametrize("k,i", [(2, 1), (4, 2), (2, 3), (2, 4)])
    def test_verifies_maximal(self, k, i):
        emb = gen_densest_intermediate(k, i).embedding
        faces = trace_faces(emb)
        assert all(len(f) == 3 for f in faces)
        assert verify_nic(emb).ok
        assert verify_maximal_embedding(emb).ok

    def test_parameter_errors(self):
        with pytest.raises(KTooSmall):
            gen_densest_intermediate(1, 1)
        with pytest.raises(InvalidParameters):
            gen_densest_intermediate(2, 5)
        with pytest.raises(InvalidParameters):
            gen_densest_intermediate(3, 2)  # i = 2 needs k = 0 mod 4
        with pytest.raises(InvalidParameters):
            gen_densest_intermediate(4, 4)  # i = 4 needs k = 2 mod 4


class TestNestedCarrierFamily:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_counts(self, k):
        inst = gen_nested_k5(k)
        g = inst.graph
        assert g.n == 15 * k - 12
        assert g.m == 51 * k - 48
        assert len(inst.embedding.registry) == 6 * (k - 1)

    @pytest.mark.parametrize("k", [2, 3])
    def test_verifies_maximal(self, k):
        emb = gen_nested_k5(k).embedding
        assert verify_nic(emb).ok
        assert verify_maximal_embedding(emb).ok

    def test_variant_count(self):
        assert nested_k5_variant_count(2) == 2
        assert nested_k5_variant_count(3) == 4
        assert nested_k5_variant_count(4) == 8

    @pytest.mark.parametrize("k", [2, 3])
    def test_variants_same_graph_distinct_registries(self, k):
        instances = [gen_nested_k5(k, variant=v)
                     for v in range(nested_k5_variant_count(k))]
        base = instances[0].graph
        registries = set()
        for inst in instances:
            assert inst.graph.edges == base.edges
            assert verify_nic(inst.embedding).ok
            registries.add(inst.embedding.registry)
        assert len(registries) == len(instances)

    def test_parameter_errors(self):
        with pytest.raises(KTooSmall):
            gen_nested_k5(1)
        with pytest.raises(InvalidParameters):
            gen_nested_k5(2, variant=2)


# (generator, arguments, vertex count of the member)
SIZED_MEMBERS = [
    (gen_optimal, (3,), 17),
    (gen_sparsest, (3,), 17),
    (gen_densest_intermediate, (2, 1), 13),
    (gen_densest_intermediate, (4, 2), 24),
    (gen_densest_intermediate, (2, 3), 15),
    (gen_densest_intermediate, (2, 4), 16),
    (gen_nested_k5, (3,), 33),
]


class TestVertexLimit:
    @pytest.mark.parametrize("gen, args, n", SIZED_MEMBERS)
    def test_oversized_member_is_refused_before_building(
            self, monkeypatch, gen, args, n):
        monkeypatch.setattr(graph_module, "MAX_VERTICES", n - 1)
        # a generator that built anything before the check would fail here
        monkeypatch.setattr(generate_module, "_Builder", None)
        with pytest.raises(InvalidParameters,
                           match=f"{n} vertices, above the limit {n - 1}"):
            gen(*args)


# (generator, arguments, planarization vertex count: n plus the crossings)
PLANARIZED_MEMBERS = [
    (gen_optimal, (3,), 8 * 3 + 2),
    (gen_sparsest, (1,), 6 * 1 + 2),
    (gen_sparsest, (2,), 6 * 2 + 2),
    (gen_sparsest, (3,), 6 * 3 + 2),
    (gen_densest_intermediate, (2, 1), 8 * 2 + 3),
    (gen_densest_intermediate, (4, 2), 8 * 4 + 5),
    (gen_densest_intermediate, (2, 3), 8 * 2 + 6),
    (gen_densest_intermediate, (2, 4), 8 * 2 + 8),
    (gen_nested_k5, (3,), 21 * 3 - 18),
    (gen_rac_counterexample, (), 186),
]


class TestPlanarizationLimit:
    @pytest.mark.parametrize("gen, args, size", PLANARIZED_MEMBERS)
    def test_planarization_count_is_known_up_front(self, gen, args, size):
        assert gen(*args).embedding.planarization.n == size

    @pytest.mark.parametrize("gen, args, size", PLANARIZED_MEMBERS)
    def test_oversized_planarization_is_refused_before_building(
            self, monkeypatch, gen, args, size):
        # the member's n fits the limit, its planarization does not
        monkeypatch.setattr(graph_module, "MAX_VERTICES", size - 1)
        monkeypatch.setattr(generate_module, "_Builder", None)
        with pytest.raises(InvalidParameters,
                           match=f"planarization has {size} vertices, "
                                 f"above the limit {size - 1}"):
            gen(*args)


class TestFacesMatchPlanarityPath:
    def test_sparsest(self):
        for k in range(1, 31):
            assert_matches_planarity_path(gen_sparsest(k))

    @pytest.mark.parametrize("i, ks", [
        (1, range(2, 31)),
        (2, range(4, 41, 4)),
        (3, range(2, 31)),
        (4, range(2, 43, 4)),
    ])
    def test_intermediate(self, i, ks):
        for k in ks:
            assert_matches_planarity_path(gen_densest_intermediate(k, i))

    def test_nested_every_variant(self):
        for k in range(2, 7):
            for variant in range(nested_k5_variant_count(k)):
                assert_matches_planarity_path(gen_nested_k5(k, variant))

    def test_rac_fans_sit_on_the_drum(self):
        # the fans' degree-2 vertices leave the planarization without a
        # unique embedding, so the planarity path may place them
        # elsewhere; with the fans deleted, both embeddings are the
        # k = 2 drum's, orientation included
        emb = gen_rac_counterexample().embedding
        reference = embed_with_crossings(emb.base,
                                         [e.pair for e in emb.registry])
        drum = gen_optimal(2).embedding
        n = drum.base.n
        shift = emb.base.n - n

        def without_fans(e):
            kept = list(range(n)) + [entry.dummy for entry in e.registry]
            rotations = tuple(
                tuple(w if w < n else w - shift
                      for w in e.rotations[v] if w < n or e.is_dummy(w))
                for v in kept)
            return embedding_to_json(
                NicEmbedding(drum.base, [entry.pair for entry in e.registry],
                             rotations))

        assert (without_fans(emb) == without_fans(reference)
                == embedding_to_json(drum))
        # each planar edge's seven fans fill the face it shares with its kite
        sizes = Counter(len(f) for f in trace_faces(emb))
        assert sizes == {3: 8 + 24, 4: 24 * 7}


class TestRacCounterexample:
    def test_frozen_shape(self):
        inst = gen_rac_counterexample()
        g = inst.graph
        assert (g.n, g.m) == (180, 372)
        assert verify_nic(inst.embedding).ok

    def test_k4s_confined_to_core(self):
        # subdividing the planar edges must not create or move any K4:
        # all six live on the original twelve vertices (list_k4 agrees
        # with the brute-force oracle on small graphs, see test_k4)
        inst = gen_rac_counterexample()
        catalog = list_k4(inst.graph)
        assert not catalog.timed_out
        assert len(catalog.quads) == 6
        assert all(max(q) < 12 for q in catalog.quads)

    def test_skeleton_biconnected_without_crossing_pairs(self):
        inst = gen_rac_counterexample()
        crossed = set()
        for entry in inst.embedding.registry:
            crossed.add(entry.first)
            crossed.add(entry.second)
        g = inst.graph
        rest = [e for e in g.edges if e not in crossed]
        assert is_biconnected(new_graph(g.n, rest))


class TestGadgetTransform:
    def test_k5_sizes(self):
        g, designated = np_gadget_transform(complete_graph(5))
        assert g.n == 5 + 6 * 10
        assert g.m == 11 * 10
        assert len(designated) == 10
        assert set(designated) == set(complete_graph(5).edges)

    def test_crossing_moves_to_designated_edges(self):
        base = complete_graph(5)
        emb = np_gadget_embedding(base, [((0, 1), (2, 3))])
        assert verify_nic(emb).ok
        _, designated = np_gadget_transform(base)
        (entry,) = emb.registry
        assert {entry.first, entry.second} == {
            designated[(0, 1)], designated[(2, 3)]}
        # frozen ids: the gadget for (0,1) starts at 5, (2,3) is the 8th edge
        assert {entry.first, entry.second} == {(5, 6), (47, 48)}

    def test_crossings_sharing_vertices_become_disjoint(self):
        # two crossings flanking the edge 0-1: 0-2 x 1-3 on one side,
        # 0-4 x 1-5 on the other.  The pairs share the vertices 0 and 1,
        # so the drawing is 1-planar but not NIC; the funnel gadgets
        # pull the crossings apart onto vertex-disjoint middles.
        base = new_graph(6, [(0, 1), (0, 2), (1, 3), (2, 3), (0, 4), (1, 5), (4, 5)])
        crossings = [((0, 2), (1, 3)), ((0, 4), (1, 5))]
        with pytest.raises(ValueError, match=r"1 violation\(s\):\n"
                           r"  \[crossing-pairs-share-le-one\]"):
            embed_with_crossings(base, crossings)

        emb = np_gadget_embedding(base, crossings)
        assert verify_nic(emb).ok
        assert len(emb.registry) == 2
        crossed = {e for entry in emb.registry for e in entry.pair}
        _, designated = np_gadget_transform(base)
        assert crossed == {designated[e] for e in [(0, 2), (1, 3), (0, 4), (1, 5)]}
