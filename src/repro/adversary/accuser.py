"""Accuser adversaries: the machine is honest, the cheat is in the evidence.

The other adversaries here are a machine's operator lying to his auditors.
These are an *auditor* lying to a third party: each takes anchored evidence
for a genuine chunk of an honest log (and the public keys) and forges where
it starts, which a chunk cannot carry in its own chain, or its signatures.
The expected outcome is not a verdict but *evidence rejected*:
:meth:`~repro.audit.evidence.Evidence.verify` raises
:class:`~repro.errors.EvidenceError` for every one, and never returns ``True``.
"""

from __future__ import annotations

import random
from copy import deepcopy
from dataclasses import replace
from typing import Any, Callable, Dict

from repro.adversary.equivocation import cancelling_twins, flipped_signature
from repro.audit.evidence import Evidence


def _bump_first_integer(state: Any) -> bool:
    """Add one to the first integer found in ``state`` (in place)."""
    items = state.items() if isinstance(state, dict) else enumerate(state)
    for key, value in items:
        if isinstance(value, int) and not isinstance(value, bool):
            state[key] = value + 1
            return True
        if isinstance(value, (dict, list)) and _bump_first_integer(value):
            return True
    return False


def forged_start_state(evidence: Evidence, keys: Any) -> Evidence:
    """The genuine chunk, replayed from a state the machine never had."""
    state = deepcopy(evidence.initial_state)
    if not _bump_first_integer(state):
        raise ValueError("the start state holds no integer to forge")
    return replace(evidence, initial_state=state)


def dropped_in_flight_recv(evidence: Evidence, keys: Any) -> Evidence:
    """The anchor cut short: the chunk's first injection loses its RECV."""
    return replace(evidence, anchor=evidence.anchor[1:])


def altered_in_flight_recv(evidence: Evidence, keys: Any) -> Evidence:
    """The in-flight RECV rewritten: the chunk replays another packet."""
    recv = evidence.anchor[0]
    forged = replace(recv, content={**recv.content, "payload": "forged"})
    return replace(evidence, anchor=[forged] + evidence.anchor[1:])


def mid_log_segment_as_log_start(evidence: Evidence, keys: Any) -> Evidence:
    """The chunk passed off as the log's start, replayed from the image."""
    return replace(evidence, anchor=[], initial_state=None)


def cancelling_authenticators(evidence: Evidence, keys: Any) -> Evidence:
    """The authenticators replaced pairwise by their cancelling twins, an
    odd one out by a copy with a flipped signature bit: none verifies."""
    rng = random.Random("cancelling-authenticators")
    held = evidence.authenticators
    forged = [twin for first, second in zip(held[::2], held[1::2])
              for twin in cancelling_twins(first, second, keys, rng)]
    if len(held) % 2:
        forged.append(flipped_signature(held[-1], rng))
    return replace(evidence, authenticators=forged)


#: name -> forgery over honest chunk evidence whose anchor opens with a RECV,
#: given the public keys the accuser holds
ACCUSER_ADVERSARIES: Dict[str, Callable[[Evidence, Any], Evidence]] = {
    "forged-start-state": forged_start_state,
    "dropped-in-flight-recv": dropped_in_flight_recv,
    "altered-in-flight-recv": altered_in_flight_recv,
    "mid-log-segment-as-log-start": mid_log_segment_as_log_start,
    "cancelling-authenticators": cancelling_authenticators,
}
