"""Same seed, same bytes: a recorded archive does not depend on the process.

ROADMAP's determinism contract ("the same seed yields byte-identical logs
across processes"), checked on the bytes the codecs, the authenticator
batches, the snapshot page files, the frame files' headers and commit
records and the checkpoint write: a seeded ``web_honest``-shaped deployment
(client + web server, v1 ship and store, snapshots sealing segments) is
recorded to an archive in two fresh interpreters under different
``PYTHONHASHSEED``s — so any iteration over a ``set`` or reliance on string
hashes on the way to disk shows — then migrated to v3, and every file must
come out with one digest.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

_RECORD = """
import hashlib, json, sys
from pathlib import Path
from repro.experiments.webload import LoadModel, run_webload
from repro.store.archive import LogArchive
root = Path(sys.argv[1])
run_webload(LoadModel(users=25, seed=42), snapshot_interval=0.2,
            root=str(root))
LogArchive(root / "honest-archive").reencode_segments(
    root / "honest-archive-v3", format_version=3)
print(json.dumps({path.relative_to(root).as_posix():
                  hashlib.sha256(path.read_bytes()).hexdigest()
                  for path in sorted(root.rglob("*")) if path.is_file()}))
"""


def _digests(root: Path, hash_seed: str) -> dict:
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONHASHSEED": hash_seed,
           "PYTHONPATH": os.pathsep.join(
               [str(src), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", _RECORD, str(root)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_seeded_web_archive_has_one_digest_per_file(tmp_path):
    first = _digests(tmp_path / "hashseed-1", "1")
    second = _digests(tmp_path / "hashseed-2", "2")
    for archive in ("honest-archive", "honest-archive-v3"):
        assert f"{archive}/MANIFEST.json" in first
        assert len([name for name in first if name.startswith(archive + "/")
                    and name.endswith(".avmf")]) == 2  # client, server
    assert first == second, sorted(
        name for name in first.keys() | second.keys()
        if first.get(name) != second.get(name))
