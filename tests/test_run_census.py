"""The run census itself (``tests/run_census.py``).

The census is only as good as what it sees: a planted definition no run
enters must be reported, one that only a process-pool worker enters must
count as entered, and a kept entry that a run does enter must fail as stale.
The full census over the paper's runs takes minutes; CI's slow job runs it
(``python tests/run_census.py --check``).  These tests run it over a planted
package in a temporary directory.
"""

from __future__ import annotations

import json
import re
import textwrap
from pathlib import Path

import pytest

from run_census import (ABSTRACT, FAILURE, KEPT, REASONS, RUNS,
                        WRAPPED, check, definitions, never_entered, run_census)

ROOT = Path(__file__).resolve().parents[1]

PLANTED = '''
"""A module with one definition of each kind the census must tell apart."""
import multiprocessing
import threading
from concurrent.futures import ProcessPoolExecutor


def entered():
    return 1


def never_entered():
    def nested():
        return 3
    return nested()


def only_in_a_worker(value):
    return value + 1


class Protocol:
    def step(self):
        raise NotImplementedError


class Implementation(Protocol):
    def step(self):
        return entered()

    @property
    def size(self):
        return 2

    @staticmethod
    def helper():
        return 5

    def unused_helper(self):
        return 4


def only_in_a_thread():
    return 6


def main():
    implementation = Implementation()
    implementation.step()
    assert implementation.size + Implementation.helper() == 7
    thread = threading.Thread(target=only_in_a_thread)
    thread.start()
    thread.join()
    # fork, as the audit engine's pool does: the worker starts with the
    # parent's profiler installed
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        assert pool.submit(only_in_a_worker, 1).result() == 2
'''


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    """The planted package, its definitions and the never-entered ones."""
    root = tmp_path_factory.mktemp("census")
    package = root / "planted"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(textwrap.dedent(PLANTED))
    runs = {"planted": ["-c", "from planted.mod import main; main()"]}
    entered = run_census(runs, package=package, path=(root,), cwd=root,
                         timeout=120)
    defs = definitions(package)
    return root, defs, never_entered(defs, entered)


def _keys(found):
    return {d.key for d in found}


def test_a_planted_never_entered_definition_is_reported(planted):
    _, _, missed = planted
    # the nested function is inside a never-entered one: reported with it
    assert _keys(missed) == {"planted.mod:never_entered",
                             "planted.mod:Protocol.step",
                             "planted.mod:Implementation.unused_helper"}


def test_a_definition_entered_only_in_a_pool_worker_counts(planted):
    _, defs, missed = planted
    assert "planted.mod:only_in_a_worker" in _keys(defs)
    assert "planted.mod:only_in_a_worker" not in _keys(missed)


def test_a_definition_entered_only_in_a_thread_counts(planted):
    _, defs, missed = planted
    assert "planted.mod:only_in_a_thread" in _keys(defs)
    assert "planted.mod:only_in_a_thread" not in _keys(missed)


def test_a_decorated_definition_is_matched_at_its_decorator(planted):
    # a code object's first line is its first decorator's
    _, defs, missed = planted
    decorated = {"planted.mod:Implementation.size", "planted.mod:Implementation.helper"}
    assert decorated <= _keys(defs)
    assert not decorated & _keys(missed)


def test_a_run_that_fails_stops_the_census(tmp_path):
    package = tmp_path / "empty"
    package.mkdir()
    (package / "__init__.py").write_text("")
    with pytest.raises(RuntimeError, match="'broken'"):
        run_census({"broken": ["-c", "raise SystemExit(3)"]}, package=package,
                   path=(tmp_path,), cwd=tmp_path, timeout=60)


def test_a_kept_entry_that_a_run_enters_is_stale(planted):
    _, defs, missed = planted
    verdict = check(defs, missed, {
        "planted.mod:entered": (FAILURE, "says it is never entered"),
        "planted.mod:gone": (FAILURE, "names no definition"),
        "planted.mod:never_entered": (FAILURE, "a planted failure branch"),
    })
    assert verdict.stale == ["planted.mod:entered", "planted.mod:gone"]
    assert not verdict.ok


def test_an_unexplained_definition_fails_and_a_kept_one_passes(planted, monkeypatch):
    root, defs, missed = planted
    monkeypatch.syspath_prepend(str(root))
    verdict = check(defs, missed, {
        "planted.mod:never_entered": (FAILURE, "a planted failure branch"),
        "planted.mod:Protocol.step": (ABSTRACT, "the protocol's step"),
    })
    assert _keys(verdict.unexplained) == {"planted.mod:Implementation.unused_helper"}
    assert not verdict.stale and not verdict.unfounded
    assert not verdict.ok


def test_a_reason_that_does_not_hold_is_unfounded(planted, monkeypatch):
    root, defs, missed = planted
    monkeypatch.syspath_prepend(str(root))
    verdict = check(defs, missed, {
        # has a body and overrides nothing bodiless
        "planted.mod:Implementation.unused_helper": (ABSTRACT, "it is not"),
        # not in bench/trace.py's table
        "planted.mod:never_entered": (WRAPPED, "it is not"),
        # no note
        "planted.mod:Protocol.step": (ABSTRACT, " "),
    })
    assert [key for key, _ in verdict.unfounded] == [
        "planted.mod:Implementation.unused_helper",
        "planted.mod:Protocol.step",
        "planted.mod:never_entered"]


def test_every_kept_entry_carries_a_known_reason_and_a_note():
    for key, (reason, note) in KEPT.items():
        assert reason in REASONS, key
        assert note.strip(), key


def test_every_kept_reason_holds_without_a_run():
    # the reasons are checked against the tree alone, so a kept entry whose
    # reason went away fails here, before the slow census runs
    defs = definitions()
    verdict = check(defs, [d for d in defs if d.key in KEPT], KEPT)
    assert not verdict.unfounded
    assert not verdict.stale, "kept entries that name no definition"


def test_the_runs_cover_every_paper_entry_point():
    experiments = {path.stem for path in (ROOT / "src/repro/experiments").glob("*.py")
                   if re.search(r"^def main\(", path.read_text(), re.M)}
    assert experiments == {name for name in RUNS if ":" not in name}
    matrix = [argv for name, argv in RUNS.items() if name.startswith("adversary_matrix")]
    assert ["-m", "repro.experiments.adversary_matrix"] in matrix
    assert any("--smoke" in argv and "--json" in argv for argv in matrix)
    examples = {f"example:{path.stem}" for path in (ROOT / "examples").glob("*.py")}
    assert examples <= set(RUNS)
    workloads = [workload["name"] for workload in
                 json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert {f"bench:{w}:trace{t}" for w in workloads for t in (0, 1)} <= set(RUNS)
