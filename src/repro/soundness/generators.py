"""Random well-formed systems for the empirical soundness sweep (E3).

Theorem 1 asserts the axiomatization sound over *all* systems of the
Section 5 model; the harness approximates the quantifier by generating
many small random systems — random principals, key sets, and action
schedules, including environment interference and past-epoch traffic —
and model-checking every axiom instance at every point.

Generation goes through :class:`~repro.model.builder.RunBuilder` with
enforcement on, so every run satisfies WF0-WF5 by construction; actions
that would violate a condition are simply skipped.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

from repro.errors import ModelError, WellFormednessError
from repro.model.builder import RunBuilder
from repro.model.runs import ENVIRONMENT, Run
from repro.model.system import Interpretation, System
from repro.terms.atoms import Key, Nonce, Principal, PrivateKey, PublicKey
from repro.terms.base import Message
from repro.terms.formulas import Formula, Fresh, Has, SharedKey
from repro.terms.messages import combined, encrypted, forwarded, group
from repro.terms.vocabulary import Vocabulary


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for random system generation."""

    principals: int = 3
    keys: int = 3
    nonces: int = 3
    keypairs: int = 1
    runs: int = 3
    steps_per_run: int = 14
    past_steps: int = 3
    env_activity: float = 0.25
    seed: int = 0


def make_vocabulary(config: GeneratorConfig) -> Vocabulary:
    vocabulary = Vocabulary()
    for index in range(config.principals):
        vocabulary.principal(f"P{index + 1}")
    for index in range(config.keys):
        vocabulary.key(f"K{index + 1}")
    for index in range(config.keypairs):
        vocabulary.keypair(f"Kp{index + 1}")
    for index in range(config.nonces):
        vocabulary.nonce(f"N{index + 1}")
    vocabulary.principal(ENVIRONMENT.name)
    return vocabulary


#: Step/message shape alternatives (hoisted so ``rng.choice`` draws from
#: shared tuples instead of per-call lists; the draws themselves are
#: unchanged).
_STEP_KINDS = ("send", "receive", "newkey", "idle")
_MESSAGE_KINDS = ("group", "encrypt", "combine", "forward", "atom")


class RandomRunGenerator:
    """Generates one well-formed run per call."""

    def __init__(self, config: GeneratorConfig, rng: random.Random,
                 vocabulary: Vocabulary) -> None:
        self.config = config
        self.rng = rng
        self.vocabulary = vocabulary
        self.principals = [
            p for p in vocabulary.constants(_sort_principal())
            if p != ENVIRONMENT
        ]
        all_keys = list(vocabulary.constants(_sort_key()))
        self.public_keys = [k for k in all_keys if isinstance(k, PublicKey)]
        # Symmetric keys circulate via keysets/newkey; private halves are
        # dealt to their owners at run start.
        self.keys = [k for k in all_keys if not isinstance(k, PublicKey)]
        self.nonces = list(vocabulary.constants(_sort_nonce()))
        self.senders = self.principals + [ENVIRONMENT]
        # Memoized views keyed by the builder's (immutable) frozensets:
        # sorting and SharedKey interning dominate message synthesis, and
        # the underlying sets barely change step to step.
        self._shared_keys: dict[tuple, SharedKey] = {}
        self._sorted_keysets: dict[frozenset, tuple[list, list]] = {}
        self._sorted_received: dict[frozenset, list] = {}

    def generate(self, name: str) -> Run:
        rng = self.rng
        keysets = {
            principal: rng.sample(self.keys, rng.randint(0, len(self.keys)))
            for principal in self.principals
        }
        # Everyone knows every public key; each private key is dealt to
        # one fixed owner (by index, so runs of a system agree).
        for index, public in enumerate(self.public_keys):
            owner = self.principals[index % len(self.principals)]
            keysets[owner] = list(keysets[owner]) + [public.partner]
            for principal in self.principals:
                keysets[principal] = list(keysets[principal]) + [public]
        env_keys = list(rng.sample(self.keys, rng.randint(0, 1)))
        env_keys.extend(self.public_keys)
        builder = RunBuilder(self.principals, keysets=keysets,
                             env_keys=env_keys)
        for _ in range(self.config.past_steps):
            self._random_step(builder)
        builder.mark_epoch()
        for _ in range(self.config.steps_per_run):
            self._random_step(builder)
        return builder.build(name)

    # -- step synthesis -----------------------------------------------------------

    def _random_step(self, builder: RunBuilder) -> None:
        rng = self.rng
        actors = self.principals
        if rng.random() < self.config.env_activity:
            actors = [builder.environment]
        actor = rng.choice(actors)
        action = rng.choice(_STEP_KINDS)
        try:
            if action == "send":
                recipient = rng.choice(self.senders)
                message = self._random_message(builder, actor)
                builder.send(actor, message, recipient)
            elif action == "receive":
                if builder.buffer(actor):
                    builder.receive(actor)
                else:
                    builder.idle()
            elif action == "newkey":
                builder.newkey(actor, rng.choice(self.keys))
            else:
                builder.idle()
        except (WellFormednessError, ModelError):
            builder.idle()

    def _random_message(self, builder: RunBuilder, sender: Principal) -> Message:
        """A random message the sender can legally produce."""
        rng = self.rng
        depth = rng.randint(1, 3)
        return self._build_message(builder, sender, depth)

    def _shared_key_atom(self, left: Principal, key: Key,
                         right: Principal) -> SharedKey:
        triple = (left, key, right)
        shared = self._shared_keys.get(triple)
        if shared is None:
            shared = self._shared_keys[triple] = SharedKey(left, key, right)
        return shared

    def _keyset_views(self, builder: RunBuilder,
                      sender: Principal) -> tuple[list, list]:
        held_set = builder.keyset(sender)
        views = self._sorted_keysets.get(held_set)
        if views is None:
            held = sorted(held_set, key=str)
            # bias towards signing when a private key is held
            private = [k for k in held if isinstance(k, PrivateKey)]
            views = self._sorted_keysets[held_set] = (held, private)
        return views

    def _in_order(self, received: frozenset) -> list:
        """``received`` sorted by printed form, so draws from it do not
        depend on a frozenset's iteration order (which follows term
        hashes, and those differ between processes)."""
        ordered = self._sorted_received.get(received)
        if ordered is None:
            ordered = self._sorted_received[received] = sorted(
                received, key=str
            )
        return ordered

    def _build_message(
        self, builder: RunBuilder, sender: Principal, depth: int
    ) -> Message:
        rng = self.rng
        atoms: list[Message] = list(self.nonces)
        if self.keys:
            # Draw-for-draw identical to the historical
            # ``rng.sample(keys, 1)`` (both are one _randbelow(n) pick),
            # without sample()'s population copy.
            key = rng.choice(self.keys)
            atoms.append(
                self._shared_key_atom(rng.choice(self.principals), key,
                                      rng.choice(self.principals))
            )
        if depth <= 1 or rng.random() < 0.4:
            received = builder.received(sender)
            if received and rng.random() < 0.3:
                return rng.choice(self._in_order(received))
            return rng.choice(atoms)
        kind = rng.choice(_MESSAGE_KINDS)
        if kind == "group":
            count = rng.randint(2, 3)
            parts = tuple(
                self._build_message(builder, sender, depth - 1)
                for _ in range(count)
            )
            return group(*parts)
        if kind == "encrypt":
            held, private = self._keyset_views(builder, sender)
            if private and rng.random() < 0.4:
                key = rng.choice(private)
                body = self._build_message(builder, sender, depth - 1)
                from_field = (
                    sender
                    if sender != builder.environment
                    else rng.choice(self.senders)
                )
                return encrypted(body, key, from_field)
            if not held:
                return rng.choice(atoms)
            key = rng.choice(held)
            body = self._build_message(builder, sender, depth - 1)
            from_field = (
                sender
                if sender != builder.environment
                else rng.choice(self.senders)
            )
            return encrypted(body, key, from_field)
        if kind == "combine":
            body = self._build_message(builder, sender, depth - 1)
            secret = rng.choice(self.nonces)
            from_field = (
                sender
                if sender != builder.environment
                else rng.choice(self.senders)
            )
            return combined(body, secret, from_field)
        if kind == "forward":
            seen = self._in_order(builder.received(sender))
            if seen:
                return forwarded(rng.choice(seen))
            if sender == builder.environment:
                # the environment may misuse forwarding (WF5 exempts it)
                return forwarded(rng.choice(atoms))
            return rng.choice(atoms)
        return rng.choice(atoms)


def generate_system(config: GeneratorConfig | None = None) -> System:
    """A random small well-formed system with a run-level interpretation."""
    config = config or GeneratorConfig()
    rng = random.Random(config.seed)
    vocabulary = make_vocabulary(config)
    generator = RandomRunGenerator(config, rng, vocabulary)
    runs = tuple(
        generator.generate(f"run-{index + 1}") for index in range(config.runs)
    )
    prop = vocabulary.proposition("p0")
    chosen = frozenset(
        run.name for run in runs if rng.random() < 0.5
    )
    interpretation = Interpretation.from_run_table({prop: chosen})
    return System(runs, interpretation, vocabulary)


def generate_systems(count: int, base_seed: int = 0,
                     config: GeneratorConfig | None = None) -> tuple[System, ...]:
    base = config or GeneratorConfig()
    return tuple(
        generate_system(dataclasses.replace(base, seed=base_seed + index))
        for index in range(count)
    )


def _sort_principal():
    from repro.terms.atoms import Sort

    return Sort.PRINCIPAL


def _sort_key():
    from repro.terms.atoms import Sort

    return Sort.KEY


def _sort_nonce():
    from repro.terms.atoms import Sort

    return Sort.NONCE
