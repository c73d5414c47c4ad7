"""Expected schema-instance counts of a Theorem-1 sweep, by reference.

The ``sweep`` workload's output check compares each schema's instance
count in a :class:`~repro.soundness.sweep.SweepReport` with the count
given here.  These rules restate how the program built its instance pool
(``pool_from_system``) and enumerated each schema (``Schema.instances``)
when the benchmark was defined, but never call either: they only read
the generated system (its sent messages and its vocabulary) and count.
So a change that makes the sweep check fewer instances than before
shows as a failed check instead of as a faster run.

Counts cannot simply be recorded per seed: ``generate_system`` does not
give the same system for the same config in every process (the order
of a set of interned terms depends on class addresses), so the seeded
configs do not fix the systems.
"""

from __future__ import annotations

import dataclasses

#: The sweep's default cap on instances per schema.
MAX_INSTANCES = 400
#: ``pool_from_system``'s cap on messages.
MAX_MESSAGES = 60


def _walk(term):
    """Every node of a term, pre-order, children in field order."""
    from repro.terms.messages import Message

    yield term
    for field in dataclasses.fields(term):
        value = getattr(term, field.name)
        for child in value if isinstance(value, tuple) else (value,):
            if isinstance(child, Message):
                yield from _walk(child)


def _pool(system):
    """Principals, keys, messages, secrets, formula count and quantified
    formula count of the sweep's instance pool."""
    from repro.model.actions import Send
    from repro.terms.atoms import Sort
    from repro.terms.messages import Combined, Encrypted, Forwarded, Group

    principals = tuple(system.principals())
    keys = tuple(system.vocabulary.constants(Sort.KEY))
    nonces = tuple(system.vocabulary.constants(Sort.NONCE))
    props = tuple(system.vocabulary.constants(Sort.PROPOSITION))

    messages: dict = {}
    for run in system.runs:
        for _who, action in run.state(run.end_time).env.history:
            if isinstance(action, Send):
                for node in _walk(action.message):
                    messages.setdefault(node, None)
    if principals and keys:
        base = nonces[:2] or keys[:1]
        p, q = principals[0], principals[-1]
        for x in base:
            inner = Encrypted(x, keys[0], p)
            for message in (inner, Encrypted(inner, keys[-1], q),
                            Combined(x, base[-1], p), Forwarded(x),
                            Forwarded(inner), Group((x, inner)),
                            Group((x, base[-1], inner))):
                messages.setdefault(message, None)

    # Prim, SharedKey + Has, Fresh, Said + Says + Sees, Believes + Implies,
    # and one ForAll over keys -- each present when its atoms exist.
    formulas = (bool(props) + 2 * bool(principals and keys) + bool(nonces)
                + 3 * bool(nonces and principals))
    formulas += 2 * bool(principals and formulas >= 2)
    quantified = int(bool(principals and keys))
    return (principals, keys, tuple(messages)[:MAX_MESSAGES], nonces[:2],
            formulas + quantified, quantified)


def expected_counts(system) -> dict[str, int]:
    """Schema name -> instances the sweep checks on ``system``."""
    from repro.terms.atoms import Key, Principal, PrivateKey, decryption_key
    from repro.terms.messages import Combined, Encrypted, Forwarded, Group

    principals, keys, messages, secrets, formulas, quantified = _pool(system)
    p, k = len(principals), len(keys)
    ciphers = [m for m in messages if isinstance(m, Encrypted)]
    combos = [m for m in messages if isinstance(m, Combined)]
    forwards = sum(isinstance(m, Forwarded) for m in messages)
    parts = sum(len(m.parts) for m in messages if isinstance(m, Group))
    keyed = [c for c in ciphers if isinstance(c.key, Key)]
    attributed = [c for c in keyed if isinstance(c.sender, Principal)]
    owned = sum(isinstance(c.sender, Principal) for c in combos)
    transparent = sum(
        all(decryption_key(node.key) in keys for node in _walk(message)
            if isinstance(node, Encrypted))
        for message in messages)

    def others(sender):
        return p - (sender in principals)

    counts = {
        "A1": p * formulas ** 2, "A2": p * formulas, "A3": p * formulas,
        "A4": p * formulas ** 2,
        "A5": sum(others(c.sender) * p * p for c in keyed),
        "A5p": p * p * sum(isinstance(c.key, PrivateKey) for c in ciphers),
        "A6": sum(others(c.sender) * p * p for c in combos),
        "A7": parts * p, "A8": len(attributed) * p, "A9": owned * p,
        "A10": forwards * p, "A11": len(attributed) * p, "A12": parts * p,
        "A12s": parts * p, "A13": owned * p, "A13s": owned * p,
        "A14": forwards * p, "A14s": forwards * p, "A15": p * formulas,
        "A16": parts, "A17": len(attributed), "A18": owned, "A19": forwards,
        "A20": len(messages) * p, "A21": p * p * k,
        "A21s": p * p * len(secrets), "S1": len(messages) * p, "S2": p * k,
        "Q1": quantified * k, "S3": transparent * p,
    }
    return {name: min(n, MAX_INSTANCES) for name, n in counts.items()}
