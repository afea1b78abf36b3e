"""The run census itself (``tests/run_census.py``).

The census is only as good as what it sees: a planted definition no run
enters must be reported, one that only a process-pool worker enters must
count as entered, and a kept entry that a run does enter must fail as stale.
So too for options: one nothing sets is reported, one set only in a worker
or only by position counts as set, a value equal to the default does not.
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

from run_census import (ABSTRACT, BENCH_CALLER, DEPLOYMENT, FAILURE, KEPT,
                        KEPT_OPTIONS, OPTION_REASONS, REASONS, RUNS, WRAPPED,
                        check, check_options, definitions, never_entered,
                        options, passed_by, run_census, unset_options)

ROOT = Path(__file__).resolve().parents[1]

PLANTED = '''
"""A module with one definition of each kind the census must tell apart."""
import multiprocessing
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass


def entered():
    return 1


def never_entered():
    def nested():
        return 3
    return nested()


def only_in_a_worker(value, step=1):
    return value + step


def options_target(a, unset=1, positional=2, equal=3.0, *, keyword=4):
    return a


def named(name="planted"):
    return name


@dataclass(frozen=True)
class PlantedSettings:
    set_field: int = 0
    unset_field: int = 0


class Protocol:
    def step(self):
        raise NotImplementedError


class Implementation(Protocol):
    def step(self, depth=1):
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
    implementation.step(depth=2)
    assert implementation.size + Implementation.helper() == 7
    thread = threading.Thread(target=only_in_a_thread)
    thread.start()
    thread.join()
    # fork, as the audit engine's pool does: the worker starts with the
    # parent's profiler installed
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        assert pool.submit(only_in_a_worker, 1, step=5).result() == 6
    # unset and equal get their defaults' values (3 == 3.0), positional its
    # own by position, keyword its own by name
    options_target(0, 1, 7, 3.0, keyword=9)
    options_target(0, unset=1, equal=3)
    named()
    assert PlantedSettings(set_field=5).unset_field == 0
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
    census = run_census(runs, package=package, path=(root,), cwd=root,
                        timeout=120)
    defs = definitions(package)
    return root, defs, never_entered(defs, census.entered), \
        unset_options(defs, census, package)


def _keys(found):
    return {d.key for d in found}


def test_a_planted_never_entered_definition_is_reported(planted):
    _, _, missed, _ = planted
    # the nested function is inside a never-entered one: reported with it
    assert _keys(missed) == {"planted.mod:never_entered",
                             "planted.mod:Protocol.step",
                             "planted.mod:Implementation.unused_helper"}


def test_a_definition_entered_only_in_a_pool_worker_counts(planted):
    _, defs, missed, _ = planted
    assert "planted.mod:only_in_a_worker" in _keys(defs)
    assert "planted.mod:only_in_a_worker" not in _keys(missed)


def test_a_definition_entered_only_in_a_thread_counts(planted):
    _, defs, missed, _ = planted
    assert "planted.mod:only_in_a_thread" in _keys(defs)
    assert "planted.mod:only_in_a_thread" not in _keys(missed)


def test_a_decorated_definition_is_matched_at_its_decorator(planted):
    # a code object's first line is its first decorator's
    _, defs, missed, _ = planted
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
    _, defs, missed, _ = planted
    verdict = check(defs, missed, {
        "planted.mod:entered": (FAILURE, "says it is never entered"),
        "planted.mod:gone": (FAILURE, "names no definition"),
        "planted.mod:never_entered": (FAILURE, "a planted failure branch"),
    })
    assert verdict.stale == ["planted.mod:entered", "planted.mod:gone"]
    assert not verdict.ok


def test_an_unexplained_definition_fails_and_a_kept_one_passes(planted, monkeypatch):
    root, defs, missed, _ = planted
    monkeypatch.syspath_prepend(str(root))
    verdict = check(defs, missed, {
        "planted.mod:never_entered": (FAILURE, "a planted failure branch"),
        "planted.mod:Protocol.step": (ABSTRACT, "the protocol's step"),
    })
    assert _keys(verdict.unexplained) == {"planted.mod:Implementation.unused_helper"}
    assert not verdict.stale and not verdict.unfounded
    assert not verdict.ok


def test_a_reason_that_does_not_hold_is_unfounded(planted, monkeypatch):
    root, defs, missed, _ = planted
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


# -- options -------------------------------------------------------------------

def test_a_planted_option_that_nothing_sets_is_reported(planted):
    # a dataclass field counts too: its generated __init__ is registered
    _, _, _, unset = planted
    assert _keys(unset) == {"planted.mod:options_target(unset)",
                            "planted.mod:options_target(equal)",
                            "planted.mod:named(name)",
                            "planted.mod:PlantedSettings(unset_field)"}


def test_an_option_set_only_in_a_pool_worker_counts(planted):
    _, defs, _, unset = planted
    assert "planted.mod:only_in_a_worker(step)" in {o.key for o in options(defs)}
    assert "planted.mod:only_in_a_worker(step)" not in _keys(unset)


def test_an_option_set_only_by_position_counts(planted):
    _, _, _, unset = planted
    assert "planted.mod:options_target(positional)" not in _keys(unset)
    assert "planted.mod:options_target(keyword)" not in _keys(unset)
    assert "planted.mod:PlantedSettings(set_field)" not in _keys(unset)


def test_passing_a_value_equal_to_the_default_does_not_set_it(planted):
    # options_target(0, 1, ..., 3.0) and options_target(0, unset=1, equal=3)
    _, _, _, unset = planted
    assert {"planted.mod:options_target(unset)",
            "planted.mod:options_target(equal)"} <= _keys(unset)


def test_a_kept_option_that_a_run_sets_is_stale(planted):
    _, _, _, unset = planted
    verdict = check_options(unset, {
        "planted.mod:options_target(keyword)": (FAILURE, "a run sets it"),
        "planted.mod:options_target(gone)": (FAILURE, "names no option"),
        "planted.mod:named(name)": (DEPLOYMENT, "the planted name"),
    })
    assert verdict.stale == ["planted.mod:options_target(gone)",
                             "planted.mod:options_target(keyword)"]
    assert not verdict.unfounded
    assert _keys(verdict.unexplained) == {
        "planted.mod:options_target(unset)", "planted.mod:options_target(equal)",
        "planted.mod:PlantedSettings(unset_field)"}
    assert not verdict.ok


def test_an_option_reason_that_does_not_hold_is_unfounded(planted):
    _, _, _, unset = planted
    verdict = check_options(unset, {
        # no call in bench/ passes it
        "planted.mod:options_target(unset)": (BENCH_CALLER, "it does not"),
        # 'equal' names no identity or path
        "planted.mod:options_target(equal)": (DEPLOYMENT, "it is not"),
        # no test passes it
        "planted.mod:PlantedSettings(unset_field)": (FAILURE, "none does"),
        # no note
        "planted.mod:named(name)": (DEPLOYMENT, " "),
    })
    assert [key for key, _ in verdict.unfounded] == [
        "planted.mod:PlantedSettings(unset_field)", "planted.mod:named(name)",
        "planted.mod:options_target(equal)", "planted.mod:options_target(unset)"]
    assert not verdict.unexplained and not verdict.stale


def test_a_call_passes_an_option_only_if_it_calls_the_options_owner(planted, tmp_path):
    """A reason's calls are resolved: a same-named method of another class,
    a same-named local function or a call the signature does not fit passes
    nothing; a call of the imported function, or of the method on an
    instance reached through a typed field, passes it."""
    _, defs, _, _ = planted
    found = {o.key: o for o in options(defs)}
    depth = found["planted.mod:Implementation.step(depth)"]
    unset = found["planted.mod:options_target(unset)"]
    elsewhere = tmp_path / "elsewhere.py"
    elsewhere.write_text(textwrap.dedent('''
        from planted import mod
        from planted.mod import Implementation

        class Workload:
            def step(self, a, depth=0):
                return a

        def options_target(a, unset=0):
            return a

        def run(workload: Workload, implementations):
            workload.step(1, depth=2)         # another class's step
            Workload().step(1, 2)
            for implementation in implementations:
                implementation.step(depth=3)  # an untyped receiver
            options_target(0, 1)              # a local function of that name
            mod.options_target(0, 1, 2, 3, 4)     # more than it takes
            mod.options_target(0, 1, other=2)     # a keyword it has not
    '''))
    assert not passed_by(depth, [elsewhere])
    assert not passed_by(unset, [elsewhere])
    caller = tmp_path / "caller.py"
    caller.write_text(textwrap.dedent('''
        from dataclasses import dataclass, field
        from typing import List

        from planted import mod
        from planted.mod import Implementation

        @dataclass
        class Deployment:
            implementations: List[Implementation] = field(default_factory=list)

        def run(deployment: Deployment):
            for implementation in deployment.implementations:
                implementation.step(depth=2)
            mod.options_target(0, 5)
    '''))
    assert passed_by(depth, [caller])
    assert passed_by(unset, [caller])


def test_every_kept_option_reason_holds_without_a_run():
    # like the kept definitions, checked against the tree alone
    kept = [o for o in options(definitions()) if o.key in KEPT_OPTIONS]
    assert {o.key for o in kept} == set(KEPT_OPTIONS), "kept options that name none"
    for key, (reason, note) in KEPT_OPTIONS.items():
        assert reason in OPTION_REASONS and note.strip(), key
    assert not check_options(kept, KEPT_OPTIONS).unfounded
