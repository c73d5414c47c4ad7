"""Parser unit tests and the parse/print round-trip property."""

import pytest
from hypothesis import given, settings

from repro.errors import ParseError, VocabularyError
from repro.terms import (
    And,
    Believes,
    Combined,
    Encrypted,
    ForAll,
    Formula,
    Forwarded,
    Fresh,
    Group,
    Has,
    Iff,
    Implies,
    Not,
    Or,
    Prim,
    Said,
    Says,
    Sees,
    SharedKey,
    SharedSecret,
    Sort,
    Truth,
    parse_formula,
    parse_message,
)

from tests.strategies import KEYS, NONCES, PRINCIPALS, PROPS, VOCAB, formulas, messages

A, B, S = PRINCIPALS
Kab, Kas, Kbs = KEYS
Na, Nb, Ts = NONCES


class TestFormulaParsing:
    def test_primitive(self):
        assert parse_formula("p", VOCAB) == Prim(PROPS[0])

    def test_true(self):
        assert parse_formula("true", VOCAB) == Truth()

    def test_connective_precedence(self):
        f = parse_formula("p & q -> p | q", VOCAB)
        assert isinstance(f, Implies)
        assert isinstance(f.antecedent, And)
        assert isinstance(f.consequent, Or)

    def test_implication_right_associative(self):
        f = parse_formula("p -> q -> p", VOCAB)
        assert isinstance(f, Implies)
        assert isinstance(f.consequent, Implies)

    def test_iff(self):
        assert isinstance(parse_formula("p <-> q", VOCAB), Iff)

    def test_negation(self):
        f = parse_formula("~~p", VOCAB)
        assert f == Not(Not(Prim(PROPS[0])))

    def test_believes(self):
        f = parse_formula("A believes B believes p", VOCAB)
        assert f == Believes(A, Believes(B, Prim(PROPS[0])))

    def test_controls(self):
        f = parse_formula("S controls A <-Kab-> B", VOCAB)
        assert f.body == SharedKey(A, Kab, B)

    def test_sees_said_says(self):
        assert isinstance(parse_formula("A sees Na", VOCAB), Sees)
        assert isinstance(parse_formula("A said Na", VOCAB), Said)
        assert isinstance(parse_formula("A says Na", VOCAB), Says)

    def test_has(self):
        assert parse_formula("A has Kab", VOCAB) == Has(A, Kab)

    def test_fresh(self):
        assert parse_formula("fresh(Na)", VOCAB) == Fresh(Na)

    def test_sharedkey_infix(self):
        assert parse_formula("A <-Kab-> B", VOCAB) == SharedKey(A, Kab, B)

    def test_sharedsecret_marker(self):
        f = parse_formula("A <-Na-> B (secret)", VOCAB)
        assert f == SharedSecret(A, Na, B)

    def test_shared_nonkey_defaults_to_secret(self):
        f = parse_formula("A <-Na-> B", VOCAB)
        assert isinstance(f, SharedSecret)

    def test_forall(self):
        f = parse_formula("forall K:key. S controls A <-?K-> B", VOCAB)
        assert isinstance(f, ForAll)
        assert f.variable.value_sort is Sort.KEY


class TestMessageParsing:
    def test_group(self):
        assert parse_message("(Na, Nb)", VOCAB) == Group((Na, Nb))

    def test_nested_group(self):
        m = parse_message("(Na, (Nb, Ts))", VOCAB)
        assert m == Group((Na, Group((Nb, Ts))))

    def test_encrypted(self):
        m = parse_message("{Na}_Kab from A", VOCAB)
        assert m == Encrypted(Na, Kab, A)

    def test_encrypted_requires_from(self):
        with pytest.raises(ParseError):
            parse_message("{Na}_Kab", VOCAB)

    def test_combined(self):
        m = parse_message("<Na>_Nb from A", VOCAB)
        assert m == Combined(Na, Nb, A)

    def test_forwarded(self):
        m = parse_message("'{Na}_Kab from A'", VOCAB)
        assert m == Forwarded(Encrypted(Na, Kab, A))

    def test_formula_in_message_position(self):
        m = parse_message("{(Ts, A <-Kab-> B)}_Kas from S", VOCAB)
        assert isinstance(m, Encrypted)
        assert SharedKey(A, Kab, B) in m.body.parts

    def test_parenthesized_single_message(self):
        assert parse_message("(Na)", VOCAB) == Na


class TestErrors:
    def test_undeclared_identifier(self):
        with pytest.raises(VocabularyError):
            parse_formula("Zz believes p", VOCAB)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_formula("p q", VOCAB)

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            parse_formula("p @ q", VOCAB)

    def test_unclosed_paren(self):
        with pytest.raises(ParseError):
            parse_formula("(p & q", VOCAB)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as excinfo:
            parse_formula("p &", VOCAB)
        assert excinfo.value.position >= 0

    def test_non_formula_term_rejected_at_formula_level(self):
        with pytest.raises(ParseError):
            parse_formula("Na", VOCAB)


class TestHostileInput:
    """Inputs that once escaped the parser's error contract: deep
    nesting raised ``RecursionError`` (a 500 from the daemon), and
    nested ciphertexts took time exponential in their depth."""

    def test_deep_parentheses_are_a_parse_error(self):
        with pytest.raises(ParseError, match="nesting"):
            parse_formula("(" * 400 + "p" + ")" * 400, VOCAB)

    def test_long_belief_chain_is_a_parse_error(self):
        with pytest.raises(ParseError, match="nesting"):
            parse_formula("A believes " * 400 + "p", VOCAB)

    def test_nesting_within_the_limit_parses(self):
        assert parse_formula("(" * 40 + "p" + ")" * 40, VOCAB) == Prim(PROPS[0])
        chain = parse_formula("A believes " * 40 + "p", VOCAB)
        for _ in range(40):
            assert isinstance(chain, Believes)
            chain = chain.body
        assert chain == Prim(PROPS[0])

    def test_long_implication_chain_needs_no_recursion(self):
        # The chain folds in a loop; too tall a result is a clean
        # ParseError (checked link by link), never a RecursionError.
        formula = parse_formula(" -> ".join(["p"] * 100), VOCAB)
        depth = 0
        while isinstance(formula, Implies):
            depth += 1
            formula = formula.consequent
        assert depth == 99
        with pytest.raises(ParseError, match="nesting"):
            parse_formula(" -> ".join(["p"] * 2000), VOCAB)

    @pytest.mark.parametrize("operator", ["&", "|", "<->"])
    def test_wide_connective_chains_are_a_parse_error(self, operator):
        # Binary chains build one AST level per operand; every walk of
        # the formula (str, compile, trace) recurses on that height.
        from repro.terms.parser import MAX_DEPTH
        from repro.terms.ops import depth

        fits = parse_formula(f" {operator} ".join(["p"] * 100), VOCAB)
        assert depth(fits) <= MAX_DEPTH
        assert str(fits)  # printing recurses on the height
        with pytest.raises(ParseError, match="nesting"):
            parse_formula(f" {operator} ".join(["p"] * 1000), VOCAB)

    def test_nested_ciphertexts_parse_in_linear_time(self):
        import time

        # Twenty levels: about a minute without the memo, not hours.
        depth = 20
        text = "A sees " + "{" * depth + "Na" + "}_Kab from A" * depth
        started = time.perf_counter()
        formula = parse_formula(text, VOCAB)
        assert time.perf_counter() - started < 2.0
        message = formula.message
        for _ in range(depth):
            assert isinstance(message, Encrypted)
            message = message.body
        assert message == Na
        assert parse_formula(str(formula), VOCAB) == formula


class TestRoundTrip:
    @given(formulas())
    @settings(max_examples=150, deadline=None)
    def test_formula_roundtrip(self, formula):
        assert parse_formula(str(formula), VOCAB) == formula

    @given(messages())
    @settings(max_examples=150, deadline=None)
    def test_message_roundtrip(self, message):
        parsed = parse_message(str(message), VOCAB)
        assert parsed == message
