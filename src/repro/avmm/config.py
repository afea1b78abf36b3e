"""AVMM configurations.

Section 6.2 defines five configurations used throughout the evaluation:

* ``bare-hw`` — the software runs directly on the hardware, no virtualisation;
* ``vmware-norec`` — plain virtual machine monitor, no recording;
* ``vmware-rec`` — VMM with deterministic-replay recording enabled;
* ``avmm-nosig`` — the full AVMM machinery minus packet signatures;
* ``avmm-rsa768`` — the complete system with 768-bit RSA signatures.

:class:`AvmmConfig` carries the feature switches that distinguish them plus
the tunables the experiments vary (snapshot interval, clock-read
optimisation).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class Configuration(enum.Enum):
    """The five named configurations from the paper's evaluation."""

    BARE_HW = "bare-hw"
    VMWARE_NOREC = "vmware-norec"
    VMWARE_REC = "vmware-rec"
    AVMM_NOSIG = "avmm-nosig"
    AVMM_RSA768 = "avmm-rsa768"

    @property
    def label(self) -> str:
        return self.value


@dataclass(frozen=True)
class AvmmConfig:
    """Feature switches and tunables for one machine's monitor."""

    configuration: Configuration = Configuration.AVMM_RSA768
    #: run the guest inside a VMM at all (False only for bare-hw)
    virtualized: bool = True
    #: record nondeterministic events for deterministic replay
    record_replay_info: bool = True
    #: maintain the tamper-evident log, acknowledgments and authenticators
    tamper_evident: bool = True
    #: signature scheme name ('rsa768', 'rsa2048', 'nosig')
    signature_scheme: str = "rsa768"
    #: take an incremental snapshot every this many simulated seconds (None = off)
    snapshot_interval: Optional[float] = 300.0
    #: enable the Section 6.5 clock-read delay optimisation
    clock_read_optimization: bool = False

    # -- derived -------------------------------------------------------------

    @property
    def signs_packets(self) -> bool:
        """Whether outgoing packets and acks carry real signatures."""
        return self.tamper_evident and self.signature_scheme != "nosig"

    # -- factory -------------------------------------------------------------

    @staticmethod
    def for_configuration(configuration: Configuration, **overrides) -> "AvmmConfig":
        """Build the standard config for one of the five named configurations."""
        presets = {
            Configuration.BARE_HW: dict(
                virtualized=False, record_replay_info=False, tamper_evident=False,
                signature_scheme="nosig", snapshot_interval=None),
            Configuration.VMWARE_NOREC: dict(
                virtualized=True, record_replay_info=False, tamper_evident=False,
                signature_scheme="nosig", snapshot_interval=None),
            Configuration.VMWARE_REC: dict(
                virtualized=True, record_replay_info=True, tamper_evident=False,
                signature_scheme="nosig", snapshot_interval=None),
            Configuration.AVMM_NOSIG: dict(
                virtualized=True, record_replay_info=True, tamper_evident=True,
                signature_scheme="nosig"),
            Configuration.AVMM_RSA768: dict(
                virtualized=True, record_replay_info=True, tamper_evident=True,
                signature_scheme="rsa768"),
        }
        kwargs = dict(presets[configuration])
        kwargs.update(overrides)
        return AvmmConfig(configuration=configuration, **kwargs)


ALL_CONFIGURATIONS = tuple(Configuration)
