"""Interning invariants: hash-consing must be invisible semantically.

Property-based checks that the intern layer (repro.terms.intern)
preserves the term language's observable behaviour — structural
equality, hashing, printing, parsing — while adding the identity
guarantees the memo layers rely on: equal terms *are* the same object,
hashes are precomputed, and pickling re-interns.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings

from repro.terms import (
    Believes,
    Encrypted,
    Group,
    Key,
    Nonce,
    Parameter,
    Principal,
    PrivateKey,
    PublicKey,
    Sort,
    children,
    depth,
    free_parameters,
    parse_formula,
    rebuild,
    size,
    submessages,
    walk,
)
from repro.terms.intern import intern_stats
from tests.strategies import VOCAB, formulas, messages


def clone(term):
    """Rebuild a term bottom-up through the public constructors.

    Without interning this would produce a fresh structurally-equal
    tree; with interning it must return the canonical nodes.
    """
    kids = children(term)
    if not kids:
        return rebuild(term, ())
    return rebuild(term, tuple(clone(kid) for kid in kids))


class TestInterning:
    @given(messages())
    @settings(max_examples=200)
    def test_equal_implies_identical(self, term):
        assert clone(term) is term

    @given(formulas())
    @settings(max_examples=200)
    def test_formula_reconstruction_is_canonical(self, formula):
        assert clone(formula) is formula

    @given(messages())
    @settings(max_examples=200)
    def test_hash_consistency(self, term):
        other = clone(term)
        assert term == other
        assert hash(term) == hash(other)
        assert hash(term) == hash(term)  # stable across calls

    def test_distinct_terms_stay_distinct(self):
        assert Nonce("N1") != Nonce("N2")
        assert Key("K") != Nonce("K")
        # Exact-type equality: the two halves of a key pair never
        # collide with each other or with a plain symmetric key.
        assert Key("K") != PublicKey("K")
        assert PublicKey("K") != PrivateKey("K")

    def test_subterm_sharing(self):
        n = Nonce("shared")
        e1 = Encrypted(Group((n, Nonce("a"))), Key("K"), Principal("P"))
        e2 = Encrypted(Group((n, Nonce("b"))), Key("K"), Principal("P"))
        (g1,) = [x for x in walk(e1) if isinstance(x, Group)]
        (g2,) = [x for x in walk(e2) if isinstance(x, Group)]
        assert g1.parts[0] is g2.parts[0]

    def test_intern_stats_shape(self):
        stats = intern_stats()
        assert set(stats) == {"size", "hits", "misses"}
        keep_alive = Nonce("stats-probe")  # noqa: F841 — holds the weak entry
        assert Nonce("stats-probe") is keep_alive
        assert intern_stats()["hits"] > stats["hits"]

    def test_unreferenced_terms_are_collected_and_reinterned(self):
        import gc

        from repro import context as _context

        with _context.use(_context.fresh("intern-weak")) as ctx:
            term = Encrypted(Nonce("weak-probe"), Key("K"), Principal("P"))
            key = (Encrypted, term.body, term.key, term.sender)
            assert key in ctx.intern_table
            del term
            gc.collect()
            assert key not in ctx.intern_table
            misses = intern_stats()["misses"]
            again = Encrypted(Nonce("weak-probe"), Key("K"), Principal("P"))
            assert intern_stats()["misses"] == misses + 1
            assert Encrypted(Nonce("weak-probe"), Key("K"),
                             Principal("P")) is again


class TestRoundTrips:
    @given(formulas())
    @settings(max_examples=150)
    def test_parse_print_round_trip_returns_canonical(self, formula):
        parsed = parse_formula(str(formula), VOCAB)
        assert parsed == formula
        assert parsed is formula

    @given(messages())
    @settings(max_examples=100)
    def test_pickle_round_trip_reinterns(self, term):
        revived = pickle.loads(pickle.dumps(term))
        assert revived == term
        assert revived is term

    def test_pickle_drops_cached_attributes(self):
        term = Group((Nonce("pa"), Encrypted(Nonce("pb"), Key("pk"),
                                             Principal("pp"))))
        submessages(term)  # populate the per-node memo
        payload = pickle.dumps(term)
        assert b"_submsgs" not in payload
        assert b"_hash" not in payload


class TestMemoizedOps:
    @given(messages())
    @settings(max_examples=150)
    def test_submessages_matches_walk(self, term):
        assert submessages(term) == frozenset(walk(term))
        assert submessages(term) is submessages(term)  # memoized

    @given(messages())
    @settings(max_examples=150)
    def test_size_and_depth_match_walk(self, term):
        assert size(term) == sum(1 for _ in walk(term))
        kids = children(term)
        if kids:
            assert depth(term) == 1 + max(depth(kid) for kid in kids)
        else:
            assert depth(term) == 1

    def test_free_parameters_memo_respects_binding(self):
        x = Parameter("x", Sort.KEY)
        p = Principal("FP")
        from repro.terms import ForAll, Has

        open_formula = Has(p, x)
        closed = ForAll(x, open_formula)
        assert free_parameters(open_formula) == frozenset({x})
        assert free_parameters(closed) == frozenset()
        # memo hit returns the same answer
        assert free_parameters(open_formula) == frozenset({x})

    @given(formulas())
    @settings(max_examples=100)
    def test_free_parameters_stable_under_recomputation(self, formula):
        first = free_parameters(formula)
        assert free_parameters(clone(formula)) == first


class TestBelievesChainSharing:
    def test_deep_chain_hash_is_cheap_and_consistent(self):
        p = Principal("CH")
        body = parse_formula("A believes A <-Kab-> B", VOCAB)
        chain = body
        for _ in range(200):
            chain = Believes(p, chain)
        again = body
        for _ in range(200):
            again = Believes(p, again)
        assert chain is again
        assert hash(chain) == hash(again)
