"""Golden recordings: what a seeded run records, pinned byte for byte.

Every machine of each workload of the benchmark of record
(``bench/workloads.py``) and of the paper's game session is recorded at seed
42 and a small scale.  Per machine the test pins

* the number of log entries and the final chain head;
* the sha256 of ``authenticators_to_bytes`` over every authenticator the
  machine collected from its peers (peers in name order) — the signatures;
* the sha256 of the decompressed v3 frames of its whole log — the entries'
  content, byte for byte.

Stored files are not pinned: zlib's output depends on the zlib build, the
frames it compresses do not.  A change to the audit side leaves every pin
as it is; a digest that moves means the record path (keys, signatures, log
content or the chain) changed.  The same digests must come out on every
supported Python version; where one disagrees, the code is at fault, not
the pin.

Re-pin after an intended record-path change, and say why in CHANGES.md::

    PYTHONPATH=src python tests/test_golden_recordings.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import sys
import zlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:   # the workloads live in the benchmark package
    sys.path.insert(0, str(ROOT))

from bench.harness import record  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

from repro.avmm.config import Configuration  # noqa: E402
from repro.game.session import GameSession, GameSessionSettings  # noqa: E402
from repro.log.codec import TypedCodec, encode_segment  # noqa: E402
from repro.log.storage import authenticators_to_bytes  # noqa: E402

SEED = 42
SCALE = 0.4
#: simulated seconds of the paper's game session
GAME_SECONDS = 4.0
PINS = Path(__file__).resolve().parent / "data" / "golden_recordings.json"
RECORDINGS = (*sorted(WORKLOADS), "game_session")


def _monitors(name: str, archive_root: Path) -> dict:
    """Record ``name`` at :data:`SEED` and :data:`SCALE`; its monitors."""
    if name == "game_session":
        session = GameSession(GameSessionSettings(
            configuration=Configuration.AVMM_RSA768, num_players=3,
            duration=GAME_SECONDS, seed=SEED, snapshot_interval=1.0))
        session.run()
        return session.monitors
    workload = WORKLOADS[name](SEED, SCALE)
    deployment = workload.build(True, archive_root)
    record(deployment)
    return deployment.monitors


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden(name: str, archive_root: Path) -> dict:
    """Per machine of recording ``name``: its pinned quantities."""
    pins = {}
    for machine, monitor in sorted(_monitors(name, archive_root).items()):
        blob = encode_segment(monitor.get_log_segment(), 3)
        collected = [auth for peer in sorted(monitor.received_authenticators)
                     for auth in monitor.received_authenticators[peer]]
        pins[machine] = {
            "entries": len(monitor.log),
            "head": monitor.log.head_hash.hex(),
            "authenticators_sha256": _digest(
                authenticators_to_bytes(collected)),
            "v3_frames_sha256": _digest(zlib.decompress(
                blob[TypedCodec._header_size(blob):])),
        }
    return pins


@pytest.mark.parametrize("name", RECORDINGS)
def test_recording_is_byte_identical(name, tmp_path):
    expected = json.loads(PINS.read_text("utf-8"))[name]
    assert golden(name, tmp_path) == expected


def main(argv) -> int:
    if argv != ["--regenerate"]:
        print(__doc__)
        return 2
    import tempfile
    pins = {}
    for name in RECORDINGS:
        with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
            pins[name] = golden(name, Path(tmp))
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", "utf-8")
    print(f"wrote {sum(map(len, pins.values()))} machines' pins to {PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
