"""The named adversary registry.

Mirrors :mod:`repro.game.cheats.catalog`: every adversary the scenario
matrix (and the docs) knows about, constructible by name with a seed.  The
``honest`` entry is the control — a no-op adversary whose cells assert the
*absence* of accusations, which is half of the paper's claim.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.adversary.acks import ACK_ADVERSARIES
from repro.adversary.base import Adversary
from repro.adversary.equivocation import (
    EquivocatingPeer,
    ForgedAuthenticatorAdversary,
    JunkAuthenticators,
)
from repro.adversary.replay import (
    ALL_MODES,
    CheatingGuestAdversary,
    HiddenNondeterminismAdversary,
    UnrecordedInputAdversary,
)
from repro.adversary.shipping import LyingShipperSegments, LyingShipperSnapshots
from repro.adversary.tampering import (
    ChainForkAdversary,
    LogForgeAdversary,
    LogModifyAdversary,
    LogRemoveAdversary,
    LogReorderAdversary,
    SnapshotMutationAdversary,
)


class HonestControl(Adversary):
    """Does nothing; its cells assert that honest machines are never accused."""

    name = "honest"
    description = "control: no misbehavior, no accusation allowed"
    modes = ALL_MODES
    during_run = True  # observable (vacuously) in every mode
    expects_detection = False
    expected_phases = ()


_REGISTRY: Dict[str, Callable[[int], Adversary]] = {
    cls.name: cls for cls in (
        HonestControl,
        LogModifyAdversary,
        LogRemoveAdversary,
        LogReorderAdversary,
        LogForgeAdversary,
        ChainForkAdversary,
        SnapshotMutationAdversary,
        ForgedAuthenticatorAdversary,
        EquivocatingPeer,
        LyingShipperSegments,
        LyingShipperSnapshots,
        HiddenNondeterminismAdversary,
        UnrecordedInputAdversary,
        CheatingGuestAdversary,
    ) + ACK_ADVERSARIES + (JunkAuthenticators,)
}
#: adversaries added after the grid, whose cells come last everywhere so the
#: seeds of the older cells stay what they were: the acknowledgment ones (one
#: kv cell each), then the rest
ACK_ADVERSARY_NAMES = tuple(cls.name for cls in ACK_ADVERSARIES)
LATE_ADVERSARY_NAMES = ACK_ADVERSARY_NAMES + (JunkAuthenticators.name,)


def adversary_names() -> List[str]:
    """Every registered adversary: the honest control, the grid's in
    alphabetical order, then the late ones in order."""
    grid = sorted(set(_REGISTRY) - {HonestControl.name, *LATE_ADVERSARY_NAMES})
    return [HonestControl.name, *grid, *LATE_ADVERSARY_NAMES]


def make_adversary(name: str, seed: int = 0) -> Adversary:
    """Construct a registered adversary by name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown adversary {name!r}; "
                       f"known: {', '.join(adversary_names())}") from None
    return factory(seed)
