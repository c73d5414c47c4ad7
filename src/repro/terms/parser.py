"""A recursive-descent parser for the surface syntax of ``M_T``/``F_T``.

The surface syntax mirrors the printed (``str``) form of terms, so
``parse_formula(str(f), vocab) == f`` for every formula over declared
constants — a property the test suite checks exhaustively with
hypothesis.

Grammar sketch (formulas)::

    formula  := iff
    iff      := imp ('<->' imp)*
    imp      := or ('->' imp)?                 # right-associative
    or       := and ('|' and)*
    and      := unary ('&' unary)*
    unary    := '~' unary | quantified | primary
    quantified := 'forall' NAME ':' SORT '.' unary
    primary  := 'true' | 'fresh' '(' message ')' | '(' formula ')'
              | term ( 'believes' unary | 'controls' unary
                     | 'sees' message | 'said' message | 'says' message
                     | 'has' term
                     | '<-' term '->' term [ '(' 'secret' ')' ] )?

and (messages)::

    message  := formula-looking input parsed as a formula, or:
    term     := NAME | '?' NAME
              | '(' message (',' message)* ')'
              | '{' message '}' '_' term 'from' term
              | '<' message '>' '_' term 'from' term
              | "'" message "'"

Identifiers resolve through a :class:`~repro.terms.vocabulary.Vocabulary`.

Three guards keep hostile input cheap.  Nesting deeper than
:data:`MAX_NESTING` levels (parentheses, ``believes`` chains, nested
ciphertexts, ...) is a :class:`~repro.errors.ParseError`, raised well
before the interpreter's recursion limit.  Connective chains
(``a & b & ...``) parse in loops, not recursion, but build one AST level
per operand, and every later walk of the formula (printing, compiling,
tracing) recurses on that height: a formula taller than
:data:`MAX_DEPTH` is a ``ParseError`` too.  And every ``parse_message``
result (or failure) is memoized by start position: the formula-first,
term-second backtracking would otherwise re-parse each nested message
twice per level, exponential in the nesting depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import ParseError
from repro.terms.atoms import Key, Parameter, PrimitiveProposition, Sort
from repro.terms.base import Message
from repro.terms.formulas import (
    TRUE,
    And,
    Believes,
    Controls,
    ForAll,
    Formula,
    Fresh,
    Has,
    Iff,
    Implies,
    Not,
    Or,
    Prim,
    PublicKeyOf,
    Said,
    Says,
    Sees,
    SharedKey,
    SharedSecret,
)
from repro.terms.messages import Combined, Encrypted, Forwarded, Group
from repro.terms.ops import depth
from repro.terms.vocabulary import Vocabulary

_SYMBOLS = ("<->", "->", "<-", "(", ")", "{", "}", ",", "~", "&", "|", "_",
            "'", ".", ":", "?", "<", ">")

#: Deepest nesting the parser accepts.  Each level costs at most seven
#: Python frames, so a maximal input stays far inside the default
#: recursion limit.
MAX_NESTING = 64

#: Tallest formula AST the parser builds, connective chains included.
#: The recursive walks downstream cost about three frames per level, so
#: this keeps them near a third of the default recursion limit.
MAX_DEPTH = 128

_SORT_NAMES = {
    "principal": Sort.PRINCIPAL,
    "key": Sort.KEY,
    "nonce": Sort.NONCE,
    "proposition": Sort.PROPOSITION,
}


@dataclass(frozen=True)
class _Token:
    kind: str  # "symbol", "name", or "end"
    text: str
    position: int


def _tokenize(text: str) -> Iterator[_Token]:
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        matched = False
        for symbol in _SYMBOLS:
            if text.startswith(symbol, i):
                yield _Token("symbol", symbol, i)
                i += len(symbol)
                matched = True
                break
        if matched:
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            yield _Token("name", text[i:j], i)
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r} at {i}", text, i)
    yield _Token("end", "", n)


class _TooDeep(ParseError):
    """Nesting past :data:`MAX_NESTING` or :data:`MAX_DEPTH`: fatal,
    never backtracked over."""


class _Parser:
    """Single-use parser over a token stream."""

    def __init__(self, text: str, vocabulary: Vocabulary) -> None:
        self.text = text
        self.vocabulary = vocabulary
        self.tokens = list(_tokenize(text))
        self.index = 0
        self.bound: list[Parameter] = []
        self.depth = 0
        #: ``parse_message`` outcomes by (start index, bound parameters):
        #: ``(message or ParseError, end index)``.
        self.messages: dict[tuple, tuple[Message | ParseError, int]] = {}

    # -- token plumbing ----------------------------------------------------

    def peek(self, offset: int = 0) -> _Token:
        return self.tokens[min(self.index + offset, len(self.tokens) - 1)]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        if token.kind != "end":
            self.index += 1
        return token

    def expect(self, text: str) -> _Token:
        token = self.peek()
        if token.text != text:
            raise ParseError(
                f"expected {text!r} but found {token.text or 'end of input'!r}"
                f" at {token.position}",
                self.text,
                token.position,
            )
        return self.advance()

    def at(self, text: str) -> bool:
        return self.peek().text == text

    def at_name(self, text: str) -> bool:
        token = self.peek()
        return token.kind == "name" and token.text == text

    def fail(self, message: str) -> ParseError:
        token = self.peek()
        return ParseError(f"{message} at {token.position}", self.text, token.position)

    def descend(self) -> None:
        """Enter one nesting level (pair with ``self.depth -= 1``)."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            token = self.peek()
            raise _TooDeep(
                f"nesting deeper than {MAX_NESTING} levels at {token.position}",
                self.text,
                token.position,
            )

    def bounded(self, formula: Formula) -> Formula:
        """Check a freshly built connective against :data:`MAX_DEPTH`.

        Called on every chain link as it is built, so ``depth`` (memoized
        per node) never recurses more than one level.
        """
        if depth(formula) > MAX_DEPTH:
            token = self.peek()
            raise _TooDeep(
                f"formula nesting deeper than {MAX_DEPTH} levels "
                f"at {token.position}",
                self.text,
                token.position,
            )
        return formula

    # -- formulas ----------------------------------------------------------

    def parse_formula(self) -> Formula:
        return self._iff()

    def _iff(self) -> Formula:
        left = self._imp()
        while self.at("<->"):
            self.advance()
            left = self.bounded(Iff(left, self._imp()))
        return left

    def _imp(self) -> Formula:
        # Right-associative, folded from the right so that a long chain
        # costs no recursion.
        operands = [self._or()]
        while self.at("->"):
            self.advance()
            operands.append(self._or())
        formula = operands.pop()
        while operands:
            formula = self.bounded(Implies(operands.pop(), formula))
        return formula

    def _or(self) -> Formula:
        left = self._and()
        while self.at("|"):
            self.advance()
            left = self.bounded(Or(left, self._and()))
        return left

    def _and(self) -> Formula:
        left = self._unary()
        while self.at("&"):
            self.advance()
            left = self.bounded(And(left, self._unary()))
        return left

    def _unary(self) -> Formula:
        self.descend()
        try:
            if self.at("~"):
                self.advance()
                return Not(self._unary())
            if self.at_name("forall"):
                return self._forall()
            return self._primary_formula()
        finally:
            self.depth -= 1

    def _forall(self) -> Formula:
        self.advance()  # forall
        name_token = self.advance()
        if name_token.kind != "name":
            raise self.fail("expected a variable name after 'forall'")
        self.expect(":")
        sort_token = self.advance()
        sort = _SORT_NAMES.get(sort_token.text)
        if sort is None:
            raise self.fail(f"unknown sort {sort_token.text!r}")
        self.expect(".")
        variable = Parameter(name_token.text, sort)
        self.bound.append(variable)
        try:
            body = self._unary()
        finally:
            self.bound.pop()
        return ForAll(variable, body)

    def _primary_formula(self) -> Formula:
        if self.at_name("true"):
            self.advance()
            return TRUE
        if self.at_name("fresh"):
            self.advance()
            self.expect("(")
            message = self.parse_message()
            self.expect(")")
            return Fresh(message)
        if self.at_name("pk"):
            self.advance()
            self.expect("(")
            principal = self._term()
            self.expect(",")
            key = self._term()
            self.expect(")")
            return PublicKeyOf(principal, key)
        if self.at("("):
            # Could be a parenthesized formula, possibly followed by a
            # formula postfix if it denotes a principal-valued term; but a
            # parenthesized *formula* is the only case at formula level.
            saved = self.index
            self.advance()
            formula = self.parse_formula()
            self.expect(")")
            return formula
        term = self._term()
        return self._formula_postfix(term)

    def _formula_postfix(self, term: Message) -> Formula:
        token = self.peek()
        if token.kind == "name":
            if token.text == "believes":
                self.advance()
                return Believes(term, self._unary())
            if token.text == "controls":
                self.advance()
                return Controls(term, self._unary())
            if token.text == "sees":
                self.advance()
                return Sees(term, self.parse_message())
            if token.text == "said":
                self.advance()
                return Said(term, self.parse_message())
            if token.text == "says":
                self.advance()
                return Says(term, self.parse_message())
            if token.text == "has":
                self.advance()
                return Has(term, self._term())
        if self.at("<-"):
            self.advance()
            middle = self._term()
            self.expect("->")
            right = self._term()
            if self._try_secret_marker():
                return SharedSecret(term, middle, right)
            if self._is_key_like(middle):
                return SharedKey(term, middle, right)
            return SharedSecret(term, middle, right)
        if isinstance(term, PrimitiveProposition):
            return Prim(term)
        if isinstance(term, Formula):
            return term
        raise self.fail(f"term {term} is not a formula")

    def _try_secret_marker(self) -> bool:
        if (
            self.at("(")
            and self.peek(1).kind == "name"
            and self.peek(1).text == "secret"
            and self.peek(2).text == ")"
        ):
            self.advance()
            self.advance()
            self.advance()
            return True
        return False

    @staticmethod
    def _is_key_like(term: Message) -> bool:
        if isinstance(term, Key):
            return True
        return isinstance(term, Parameter) and term.value_sort is Sort.KEY

    # -- messages ----------------------------------------------------------

    def parse_message(self) -> Message:
        """Parse a message; formulas are messages, so try formula syntax."""
        key = (self.index, tuple(self.bound))
        outcome = self.messages.get(key)
        if outcome is None:
            outcome = (self._message_or_error(), self.index)
            self.messages[key] = outcome
        message, self.index = outcome
        if isinstance(message, ParseError):
            raise message.with_traceback(None)
        return message

    def _message_or_error(self) -> Message | ParseError:
        start = self.index
        try:
            return self.parse_formula()
        except _TooDeep:
            raise
        except ParseError:
            self.index = start
        try:
            return self._term()
        except _TooDeep:
            raise
        except ParseError as error:
            return error

    def _term(self) -> Message:
        self.descend()
        try:
            return self._term_body()
        finally:
            self.depth -= 1

    def _term_body(self) -> Message:
        token = self.peek()
        if token.text == "(":
            return self._group_or_paren()
        if token.text == "{":
            return self._encrypted()
        if token.text == "<":
            return self._combined()
        if token.text == "'":
            self.advance()
            body = self.parse_message()
            self.expect("'")
            return Forwarded(body)
        if token.kind == "name" and token.text == "inv":
            self.advance()
            self.expect("(")
            inner = self._term()
            self.expect(")")
            from repro.terms.atoms import PrivateKey, PublicKey

            if isinstance(inner, PublicKey):
                return inner.partner
            if isinstance(inner, PrivateKey):
                return inner.partner
            raise self.fail(f"inv(...) needs a key-pair half, got {inner}")
        if token.text == "?":
            self.advance()
            name_token = self.advance()
            if name_token.kind != "name":
                raise self.fail("expected a parameter name after '?'")
            for bound in reversed(self.bound):
                if bound.name == name_token.text:
                    return bound
            symbol = self.vocabulary.lookup(name_token.text)
            if not isinstance(symbol, Parameter):
                raise self.fail(f"{name_token.text!r} is not a parameter")
            return symbol
        if token.kind == "name":
            self.advance()
            return self.vocabulary.lookup(token.text)
        raise self.fail(f"expected a term, found {token.text or 'end of input'!r}")

    def _group_or_paren(self) -> Message:
        self.expect("(")
        first = self.parse_message()
        parts = [first]
        while self.at(","):
            self.advance()
            parts.append(self.parse_message())
        self.expect(")")
        if len(parts) == 1:
            return parts[0]
        return Group(tuple(parts))

    def _encrypted(self) -> Message:
        self.expect("{")
        body = self.parse_message()
        self.expect("}")
        self.expect("_")
        key = self._term()
        if not self.at_name("from"):
            raise self.fail("encrypted message requires a 'from' field")
        self.advance()
        sender = self._term()
        return Encrypted(body, key, sender)

    def _combined(self) -> Message:
        self.expect("<")
        body = self.parse_message()
        self.expect(">")
        self.expect("_")
        secret = self._term()
        if not self.at_name("from"):
            raise self.fail("combined message requires a 'from' field")
        self.advance()
        sender = self._term()
        return Combined(body, secret, sender)

    # -- entry points ------------------------------------------------------

    def finish(self, value: Message) -> Message:
        token = self.peek()
        if token.kind != "end":
            raise ParseError(
                f"unexpected trailing input {token.text!r} at {token.position}",
                self.text,
                token.position,
            )
        return value


def parse_formula(text: str, vocabulary: Vocabulary) -> Formula:
    """Parse a formula of ``F_T`` over the given vocabulary."""
    return _parse(text, vocabulary, _Parser.parse_formula)  # type: ignore[return-value]


def parse_message(text: str, vocabulary: Vocabulary) -> Message:
    """Parse a message of ``M_T`` over the given vocabulary."""
    return _parse(text, vocabulary, _Parser.parse_message)


def _parse(text: str, vocabulary: Vocabulary, rule) -> Message:
    parser = _Parser(text, vocabulary)
    try:
        value = rule(parser)
    except _TooDeep as error:
        # Callers see a plain ParseError.
        raise ParseError(str(error), text, error.position) from None
    return parser.finish(value)
