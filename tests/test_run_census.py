"""The run census itself (``tests/run_census.py``), the one guard on
"``src/`` keeps only what runs".

A planted package in a temporary directory holds what the census must
report (a dead def, one only a test uses, one only a dict key names, a
same-named method of another class, a class with no ``def`` and an
abstract method that nothing names, an option nothing sets) and what it
must count (entered or set only in a pool worker, a thread or by
position).  The kept table is checked against ``src/`` without a run; the
full census over the paper's runs takes minutes, and CI's slow job runs it
(``python tests/run_census.py --check``).
"""

from __future__ import annotations

import json
import re
import shutil
import textwrap
from pathlib import Path

import pytest

from run_census import (ABSTRACT, ACCESSOR, BENCH_CALLER, DEPLOYMENT,
                        DOCUMENTED, FAILURE, KEPT, RUNS, WRAPPED, Definition,
                        check, definitions, kept_with, named_as_code,
                        names_used, never_entered, options, passed_by,
                        run_census, unnamed_classes, unset_options)

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

    def render(self):
        raise NotImplementedError

    def stop(self):
        pass


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

    def stop(self):
        return 12


class Other:
    def step(self):
        return 10

    def long_accessor(self):
        first = 1
        second = 2
        third = 3
        fourth = 4
        return first + second + third + fourth


@dataclass
class OnlyInTests:
    value: int = 0


# what no paper run reaches, one line each
class Dead: pass
def only_in_tests(): return 7
def by_dict_key(): return 8
def documented_in_prose(): return 9
def failure_branch(): by_dict_key = its_helper(); return by_dict_key
def its_helper(): return 11


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
    return {"by_dict_key": 1}
'''

PLANTED_TEST = '''
from planted.mod import OnlyInTests, only_in_tests


def test_only_in_tests():
    assert only_in_tests() == 7 and OnlyInTests().value == 0
'''

PLANTED_DOC = """The planted module's `failure_branch()` is documented as code;
documented_in_prose is named in prose only.
"""


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    """The planted package's root, definitions, never-entered ones (and classes
    nothing outside its tests names) and unset options.  Its tests, docs and
    (empty) wrap table sit beside it; the census runs no test."""
    root = tmp_path_factory.mktemp("census")
    package = root / "planted"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(textwrap.dedent(PLANTED))
    (root / "tests").mkdir()
    (root / "tests" / "test_planted.py").write_text(PLANTED_TEST)
    (root / "docs").mkdir()
    (root / "docs" / "planted.md").write_text(PLANTED_DOC)
    (root / "bench").mkdir()
    (root / "bench" / "trace.py").write_text("WRAPS = []  # no wrap targets\n")
    runs = {"planted": ["-c", "from planted.mod import main; main()"]}
    census = run_census(runs, package=package, path=(root,), cwd=root,
                        timeout=120)
    defs = definitions(package)
    named = names_used(package, (root,))
    missed = never_entered(defs, census.entered, named) + unnamed_classes(named, package)
    return root, defs, missed, unset_options(defs, census, package)


def _keys(found):
    return {d.key for d in found}


#: what the planted package's runs never enter, and the classes nothing
#: outside its tests names
PLANTED_MISSED = {
    "planted.mod:never_entered",                # dead (with its nested def)
    "planted.mod:Implementation.unused_helper",
    "planted.mod:Implementation.stop",
    "planted.mod:Protocol.stop",                # empty; the abstract step is
    "planted.mod:Protocol.render",              # named, this abstract one is not
    "planted.mod:Other.step",                   # Implementation.step runs
    "planted.mod:Other.long_accessor",
    "planted.mod:Dead",                         # a class with no def
    "planted.mod:OnlyInTests",                  # a dataclass only a test builds
    "planted.mod:only_in_tests",
    "planted.mod:by_dict_key",                  # a dict key names nothing,
                                                # nor a local of failure_branch
    "planted.mod:documented_in_prose",
    "planted.mod:failure_branch",
    "planted.mod:its_helper",
}


#: the planted options no run sets
PLANTED_UNSET = {"planted.mod:options_target(unset)", "planted.mod:options_target(equal)",
                 "planted.mod:named(name)", "planted.mod:PlantedSettings(unset_field)"}


def test_a_planted_never_entered_definition_is_reported(planted):
    _, _, missed, _ = planted
    # the nested function is inside a never-entered one: reported with it
    assert _keys(missed) == PLANTED_MISSED


@pytest.mark.parametrize("key", ["planted.mod:only_in_a_worker", "planted.mod:only_in_a_thread"])
def test_a_definition_entered_only_in_a_pool_worker_or_thread_counts(planted, key):
    _, defs, missed, _ = planted
    assert key in _keys(defs)
    assert key not in _keys(missed)


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


def test_a_kept_entry_that_a_run_enters_or_sets_or_another_keeps_is_stale(planted):
    _, _, missed, unset = planted
    verdict = check(missed + unset, {
        "planted.mod:entered": (FAILURE, "says it is never entered"),
        "planted.mod:gone": (FAILURE, "names no definition"),
        "planted.mod:failure_branch": (FAILURE, "a planted failure branch"),
        # failure_branch calls it, so it is kept with it
        "planted.mod:its_helper": (FAILURE, "its helper"),
        "planted.mod:options_target(keyword)": (FAILURE, "a run sets it"),
        "planted.mod:options_target(gone)": (FAILURE, "names no option"),
    })
    assert verdict.stale == ["planted.mod:entered", "planted.mod:gone",
                             "planted.mod:its_helper", "planted.mod:options_target(gone)",
                             "planted.mod:options_target(keyword)"]
    assert not verdict.unfounded and not verdict.ok


def test_an_unexplained_entry_fails_and_a_kept_one_passes(planted, monkeypatch):
    root, _, missed, unset = planted
    monkeypatch.syspath_prepend(str(root))
    monkeypatch.setattr("run_census.ROOT", root)
    kept = {
        "planted.mod:failure_branch": (DOCUMENTED, "docs/planted.md — planted"),
        "planted.mod:Implementation.stop": (ABSTRACT, "the protocol's stop"),
        "planted.mod:Implementation.unused_helper": (ACCESSOR, "a planted accessor"),
        "planted.mod:named(name)": (DEPLOYMENT, "the planted name"),
    }
    verdict = check(missed + unset, kept)
    # what failure_branch calls is kept with it (its local by_dict_key
    # keeps nothing); every other planted case fails: a dead def, one only
    # a test calls, one only a dict key names, a same-named method of
    # another class, classes and an abstract method nothing outside tests
    # names, options nothing sets
    assert _keys(verdict.unexplained) == (PLANTED_MISSED | PLANTED_UNSET) - set(kept) - {
        "planted.mod:its_helper"}
    assert not verdict.stale and not verdict.unfounded
    assert not verdict.ok


def test_a_reason_that_does_not_hold_is_unfounded(planted, monkeypatch):
    root, _, missed, unset = planted
    monkeypatch.syspath_prepend(str(root))
    monkeypatch.setattr("run_census.ROOT", root)
    kept = {
        # has a body and overrides nothing bodiless
        "planted.mod:Implementation.unused_helper": (ABSTRACT, "it is not"),
        # not in bench/trace.py's table
        "planted.mod:never_entered": (WRAPPED, "it is not"),
        # no note
        "planted.mod:Implementation.stop": (ABSTRACT, " "),
        # its doc names it in prose only
        "planted.mod:documented_in_prose": (DOCUMENTED, "docs/planted.md — prose"),
        # the note cites no doc
        "planted.mod:only_in_tests": (DOCUMENTED, "nowhere"),
        # longer than five lines
        "planted.mod:Other.long_accessor": (ACCESSOR, "too long"),
        # a class is no accessor, and no protocol method
        "planted.mod:Dead": (ACCESSOR, "it is not"),
        "planted.mod:OnlyInTests": (ABSTRACT, "it is not"),
        # an option's reason for a definition, and the other way round
        "planted.mod:by_dict_key": (DEPLOYMENT, "it is not"),
        "planted.mod:named(name)": (ACCESSOR, "it is not"),
        # no call in bench/ passes it
        "planted.mod:options_target(unset)": (BENCH_CALLER, "it does not"),
        # 'equal' names no identity or path
        "planted.mod:options_target(equal)": (DEPLOYMENT, "it is not"),
        # no test passes it
        "planted.mod:PlantedSettings(unset_field)": (FAILURE, "none does"),
    }
    verdict = check(missed + unset, kept)
    assert [key for key, _ in verdict.unfounded] == sorted(kept)


@pytest.fixture(scope="module")
def tree():
    """What ``--check`` checks in ``src/`` without a run: the kept
    definitions and options, and the classes nothing outside tests/ names."""
    defs = definitions()
    return ([d for d in defs if d.key in KEPT] + unnamed_classes(names_used())
            + [o for o in options(defs) if o.key in KEPT])


@pytest.mark.parametrize("key", sorted(KEPT))
def test_each_kept_entry_holds_without_a_run(tree, key):
    # it names a definition or option that no other kept entry keeps, and
    # its reason holds: one that went wrong fails before the slow census
    assert key in {f.key for f in tree}, "names no definition or option"
    kept = [f for f in tree if isinstance(f, Definition)]
    assert key not in kept_with(kept, set(KEPT) - {key}), "another entry keeps it"
    assert check(tree, {key: KEPT[key]}).unfounded == []


def test_every_class_with_no_def_is_named_or_kept(tree):
    assert not check(tree, KEPT).unexplained, "classes nothing outside tests/ names"


def test_an_unnamed_class_planted_in_the_tree_is_caught(tmp_path):
    package = tmp_path / "repro"
    shutil.copytree(ROOT / "src" / "repro", package)
    with open(package / "audit" / "kernel.py", "a") as kernel:
        kernel.write("\n\nclass PlantedUnnamed(Exception):\n    pass\n")
    assert _keys(unnamed_classes(names_used(package), package)) == {
        "repro.audit.kernel:PlantedUnnamed"}


@pytest.mark.parametrize("key", sorted(key for key, (reason, _) in KEPT.items()
                                       if reason == DOCUMENTED))
def test_a_citation_survives_text_inserted_above_it(key):
    # the note cites the file, not a line, so editing the doc above the
    # passage that names the definition leaves the citation good
    doc = ROOT / KEPT[key][1].split()[0]
    inserted = "A new paragraph.\n\n" * 40 + doc.read_text()
    assert named_as_code(inserted, key.partition(":")[2].split(".")[-1])


def test_a_name_in_prose_only_is_no_citation():
    assert named_as_code("drain it with `service.audit_pending(f)`.", "audit_pending")
    assert not named_as_code("drain it with audit_pending.", "audit_pending")
    assert not named_as_code("`audit_pending_total`", "audit_pending")
    assert named_as_code("```python\nservice.audit_pending(f)\n```", "audit_pending")


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
    # a dataclass field counts too: its generated __init__ is registered.
    # Set are positional (by position), keyword (by name), set_field, and
    # step in a pool worker only; unset and equal are passed only values
    # equal to their defaults (1, and 3 for 3.0)
    _, defs, _, unset = planted
    assert "planted.mod:only_in_a_worker(step)" in {o.key for o in options(defs)}
    assert _keys(unset) == PLANTED_UNSET


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
