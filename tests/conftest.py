"""Shared fixtures for the test suite.

Expensive artefacts (certified key pairs, a short recorded game session) are
session-scoped so the many tests that only *read* them do not pay for them
repeatedly.

The package is normally installed with ``pip install -e .`` (CI does); for a
clean checkout without an install, the fallback below puts the ``src/``
layout on ``sys.path`` so plain ``python -m pytest`` still works.

Opt-in seeded test-order shuffling (hidden inter-test ordering dependencies
are bugs; CI runs the fast stage shuffled to flush them out):

* ``--shuffle`` or ``REPRO_TEST_SHUFFLE=1`` enables it;
* ``--shuffle-seed N`` / ``REPRO_TEST_SHUFFLE_SEED=N`` pins the order; by
  default a fresh seed is drawn per run and printed in the header (and again
  in the summary when anything fails) so the exact order can be reproduced.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import sys

if "repro" not in sys.modules:
    try:  # the installed package wins
        import repro  # noqa: F401
    except ImportError:  # clean checkout: fall back to the src/ layout
        sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

import pytest


def pytest_addoption(parser):
    parser.addoption("--shuffle", action="store_true", default=False,
                     help="shuffle test order (also: REPRO_TEST_SHUFFLE=1)")
    parser.addoption("--shuffle-seed", type=int, default=None,
                     help="seed for --shuffle (also: REPRO_TEST_SHUFFLE_SEED)")


def _shuffle_enabled(config) -> bool:
    if config.getoption("--shuffle"):
        return True
    return os.environ.get("REPRO_TEST_SHUFFLE", "").strip().lower() in (
        "1", "true", "yes", "on")


def _shuffle_seed(config) -> int:
    seed = config.getoption("--shuffle-seed")
    if seed is None:
        env = os.environ.get("REPRO_TEST_SHUFFLE_SEED", "").strip()
        seed = int(env) if env else random.SystemRandom().randrange(2 ** 32)
    return seed


def pytest_configure(config):
    if _shuffle_enabled(config):
        config._repro_shuffle_seed = _shuffle_seed(config)


def pytest_report_header(config):
    seed = getattr(config, "_repro_shuffle_seed", None)
    if seed is None:
        return None
    return (f"repro: shuffling test order with seed {seed} "
            f"(reproduce with --shuffle --shuffle-seed {seed})")


def pytest_collection_modifyitems(config, items):
    seed = getattr(config, "_repro_shuffle_seed", None)
    if seed is not None:
        random.Random(seed).shuffle(items)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    seed = getattr(config, "_repro_shuffle_seed", None)
    if seed is not None and exitstatus != 0:
        terminalreporter.write_sep(
            "=", f"test order was shuffled — reproduce this order with "
                 f"--shuffle --shuffle-seed {seed}")

from repro.audit.engine import shutdown_worker_pools
from repro.avmm.config import Configuration
from repro.crypto.keys import CertificateAuthority, KeyStore
from repro.game.cheats.implementations import UnlimitedAmmoCheat
from repro.game.session import GameSession, GameSessionSettings


@pytest.fixture(scope="session", autouse=True)
def no_worker_left_behind():
    """The audit engine's worker pools are process-wide and warm; the session
    stops them and checks that no worker process outlives it."""
    yield
    shutdown_worker_pools()
    leftover = multiprocessing.active_children()
    assert not leftover, f"worker processes left behind: {leftover}"


@pytest.fixture(scope="session")
def ca() -> CertificateAuthority:
    """A certificate authority using real RSA-768 keys."""
    return CertificateAuthority(scheme="rsa768", seed=1234)


@pytest.fixture(scope="session")
def keystore(ca) -> KeyStore:
    """A keystore pre-loaded with certificates for the standard test parties."""
    store = KeyStore(ca)
    for identity in ("alice", "bob", "charlie", "server",
                     "player1", "player2", "player3"):
        store.add_certificate(ca.issue(identity).certificate)
    return store


@pytest.fixture(scope="session")
def honest_session() -> GameSession:
    """A short, fully honest 3-player game recorded under avmm-rsa768."""
    settings = GameSessionSettings(
        configuration=Configuration.AVMM_RSA768,
        num_players=3, duration=6.0, seed=11, snapshot_interval=3.0)
    session = GameSession(settings)
    session.run()
    return session


@pytest.fixture(scope="session")
def cheater_session() -> GameSession:
    """A short game in which player1 runs the unlimited-ammo cheat image."""
    settings = GameSessionSettings(
        configuration=Configuration.AVMM_RSA768,
        num_players=2, duration=6.0, seed=12, snapshot_interval=3.0,
        cheats={"player1": UnlimitedAmmoCheat()})
    session = GameSession(settings)
    session.run()
    return session
