"""Guard: ``src/`` keeps only what runs.

Every function, class and method under ``src/repro/`` must have a user
outside ``tests/``: the library itself, the benchmark of record (``bench/``)
or the examples.  A definition that only tests call is code nobody runs; it
is deleted, moved into ``tests/``, or named in :data:`ALLOWED` with the
documented entry point it stands for (or as a small accessor tests read
running code through).

The scan is by name, and transitive.  It starts from what runs anyway —
every non-import statement of a user file, and the module-level statements
of ``src/`` — and a definition becomes live when its name is used by
something live (a method also needs its class to be live; dunders are live
with their class).  An import line and an ``__all__`` entry are not uses,
and neither is a definition naming itself, so a chain of definitions that
only each other reach is dead as a whole.  A string that is a dotted path
under ``repro.`` (``"repro.log.codec:TypedCodec.encode_segment"``) uses each
of its parts: that is how ``bench/trace.py`` names what it wraps.  Any other
string — a dict key such as ``"fork"`` — uses nothing.  Sharing a name with
something live keeps a definition alive, so the scan can miss dead code but
never flags live code.

Run it as a script to list what it finds, with line counts:
``python tests/test_only_what_runs.py``.
"""

from __future__ import annotations

import ast
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
USER_DIRS = ("bench", "examples")

#: the one reason a definition that is no entry point may stay: tests read
#: running code through it (at most five lines)
ACCESSOR = "a read-only accessor tests use to observe code that runs"

#: definitions kept with no user outside tests, each with its reason: the
#: documented entry point (``docs/<file>.md``, which names the definition as
#: code, in backticks), or :data:`ACCESSOR`.  What a kept definition uses is
#: kept with it.
ALLOWED = {
    # documented entry points
    "repro.vm.snapshot:SnapshotManager.resident_bytes":
        "docs/snapshots.md — the snapshot manager's memory bound",
    "repro.service.ingest:AuditIngestService.audit_pending":
        "docs/log-archive.md — draining the audit queue in one fleet call",
    "repro.store.archive:LogArchive.reencode_segments":
        "docs/log-format.md — the v1 -> v3 archive migration",
    # accessors
    "repro.audit.engine:pool_starts_total": ACCESSOR,
    "repro.audit.online:OnlineAuditor.fault_detected": ACCESSOR,
    "repro.avmm.monitor:AccountableVMM.shipped_through": ACCESSOR,
    "repro.log.entries:content_materializations_total": ACCESSOR,
    "repro.log.hashchain:verify_entry": ACCESSOR,
    "repro.log.tamper_evident:TamperEvidentLog.head_hash": ACCESSOR,
    "repro.metrics.latency:LatencyRecorder.unmatched_received": ACCESSOR,
    "repro.network.channel:ReliableChannel.gave_up_on": ACCESSOR,
    "repro.network.channel:ReliableChannel.retransmissions": ACCESSOR,
    "repro.network.channel:ReliableChannel.unacknowledged": ACCESSOR,
    "repro.service.ingest:AuditIngestService.pending_segments": ACCESSOR,
    "repro.service.ingest:AuditIngestService.quarantined_machines": ACCESSOR,
    "repro.sim.clock:HostClock.reads": ACCESSOR,
    "repro.vm.devices:VirtualDisk.writes": ACCESSOR,
}

_DOTTED = re.compile(r"repro(?:[.:][A-Za-z_]\w*)+")
_DOC_REF = re.compile(r"docs/[\w.-]+\.md(?= )")


@dataclass(eq=False)
class Definition:
    module: str
    qualname: str
    name: str
    lineno: int
    end_lineno: int
    parent: Definition | None
    uses: set = field(default_factory=set)

    @property
    def key(self) -> str:
        return f"{self.module}:{self.qualname}"

    @property
    def lines(self) -> int:
        return self.end_lineno - self.lineno + 1


def _is_docstring(node) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _is_all(node) -> bool:
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
               else [])
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _names(nodes, skip=frozenset()) -> set:
    """Names used under ``nodes``, not descending into ``skip``, imports,
    ``__all__`` or docstrings."""
    used: set = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if node in skip or isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if _is_all(node):
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.fullmatch(node.value)):
            used.update(re.split(r"[.:]", node.value))
        body = getattr(node, "body", None)
        for child in ast.iter_child_nodes(node):
            if not (isinstance(body, list) and body and child is body[0]
                    and _is_docstring(child)):
                stack.append(child)
    return used


_DEF = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _module_definitions(module: str, tree: ast.Module):
    """The module's definitions, and the names its own statements use."""
    found: list[Definition] = []

    def statements(body):
        # definitions sit at the top of a body or under if / try at module level
        for node in body:
            if isinstance(node, _DEF):
                yield node
            elif isinstance(node, (ast.If, ast.Try)):
                for part in (node.body, node.orelse,
                             getattr(node, "finalbody", []),
                             *(h.body for h in getattr(node, "handlers", []))):
                    yield from statements(part)

    def visit(node, parent, prefix):
        definition = Definition(module, prefix + node.name, node.name,
                                node.lineno, node.end_lineno, parent)
        found.append(definition)
        inner = []
        if isinstance(node, ast.ClassDef):
            inner = [child for child in node.body if isinstance(child, _DEF)]
            for child in inner:
                visit(child, definition, definition.qualname + ".")
        definition.uses = _names([node], skip=frozenset(inner)) - {node.name}

    top = list(statements(tree.body))
    for node in top:
        visit(node, None, "")
    return found, _names(tree.body, skip=frozenset(top))


class Scan:
    """The definitions in ``sources`` (module name -> source text) and the
    names that run anyway: those of the ``users`` (source texts) and of the
    modules' own statements."""

    def __init__(self, sources: dict, users: list) -> None:
        self.definitions: list[Definition] = []
        self.root_names: set = set()
        for text in users:
            self.root_names |= _names(ast.parse(text).body)
        for module, text in sources.items():
            found, used = _module_definitions(module, ast.parse(text))
            self.definitions += found
            self.root_names |= used

    def dead(self, kept=frozenset()) -> list[Definition]:
        """Definitions nothing live uses; the ``kept`` ones (keys) are live,
        and so is what they use."""
        live: set = set()
        live_names = set(self.root_names)
        changed = True
        while changed:
            changed = False
            for d in self.definitions:
                if d in live or (d.parent is not None and d.parent not in live):
                    continue
                dunder = d.name.startswith("__") and d.name.endswith("__")
                if d.name in live_names or dunder or d.key in kept:
                    live.add(d)
                    live_names |= d.uses
                    changed = True
        return [d for d in self.definitions if d not in live]


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _tree_sources():
    """``src/``'s modules by name, and the user files' texts."""
    sources = {_module_name(p): p.read_text() for p in sorted(SRC.rglob("*.py"))}
    users = [p.read_text() for d in USER_DIRS for p in sorted((ROOT / d).rglob("*.py"))
             if "tests" not in p.relative_to(ROOT).parts]
    return sources, users


@pytest.fixture(scope="module")
def tree() -> Scan:
    return Scan(*_tree_sources())


def test_every_definition_in_src_has_a_user(tree):
    unexplained = [f"{d.key} ({d.lines} lines)" for d in tree.dead(set(ALLOWED))]
    assert not unexplained, (
        "definitions in src/ that nothing outside tests/ uses — delete them, "
        "move them into tests/, or add them to ALLOWED with a reason:\n  "
        + "\n  ".join(unexplained))


@pytest.mark.parametrize("key", sorted(ALLOWED))
def test_each_allowance_is_needed(tree, key):
    # an allowed definition that gained a user, or is kept by another
    # allowed one, or is gone, leaves the list
    assert key in {d.key for d in tree.dead(set(ALLOWED) - {key})}


@pytest.mark.parametrize("key", sorted(ALLOWED))
def test_each_allowance_has_its_reason(tree, key):
    reason = ALLOWED[key]
    if reason == ACCESSOR:
        [definition] = [d for d in tree.definitions if d.key == key]
        assert definition.lines <= 5, f"{key} is no small accessor"
        return
    match = _DOC_REF.match(reason)
    assert match, f"{key}: the reason must start with docs/<file>.md"
    assert _named_as_code((ROOT / match[0]).read_text(), _name(key)), (
        f"{match[0]} does not name {key} as code")


def _name(key: str) -> str:
    return key.rsplit(":", 1)[-1].rsplit(".", 1)[-1]


def _named_as_code(text: str, name: str) -> bool:
    """Whether ``name`` appears as code in ``text``: in a fenced block or
    an inline backtick span."""
    word = re.compile(rf"\b{re.escape(name)}\b")
    return any(word.search(span)
               for span in re.findall(r"```.*?```|`[^`\n]+`", text, re.S))


DOCUMENTED = sorted(key for key, reason in ALLOWED.items() if reason != ACCESSOR)


@pytest.mark.parametrize("key", DOCUMENTED)
def test_a_citation_survives_text_inserted_above_it(key):
    # the reason cites the file, not a line, so editing the doc above the
    # passage that names the definition leaves the citation good
    doc = ROOT / _DOC_REF.match(ALLOWED[key])[0]
    inserted = "A new paragraph.\n\n" * 40 + doc.read_text()
    assert _named_as_code(inserted, _name(key))


def test_a_name_in_prose_only_is_no_citation():
    assert _named_as_code("drain it with `service.audit_pending(f)`.", "audit_pending")
    assert not _named_as_code("drain it with audit_pending.", "audit_pending")
    assert not _named_as_code("`audit_pending_total`", "audit_pending")
    assert _named_as_code("```python\nservice.audit_pending(f)\n```", "audit_pending")


PLANTED = '''
"""A module with one of each kind of definition."""
import os
from .other import reexported
__all__ = ["exported_only", "reexported"]

def used(): return helper()
def helper(): return os.sep
def exported_only(): pass
def only_from_dead(): pass
def dead_caller(): return only_from_dead()
def recursive(): return recursive()
def in_docstring():
    """Mentions dead_caller, which is still dead."""
def kept(): return kept_helper()
def kept_helper(): pass

class Live:
    def __init__(self): pass
    def called(self): pass
    def uncalled(self): pass

class Dead:
    def called(self): pass

def by_string(): pass
def by_dict_key(): pass
VALUE = Live().called()
'''

PLANTED_USER = '''
from repro.planted import Dead, used
used()
TARGET = "repro.planted:by_string"
OPTIONS = {"by_dict_key": 1}
'''


def test_the_scan_catches_planted_dead_definitions():
    planted = Scan({"repro.planted": PLANTED}, [PLANTED_USER])
    dead = {d.qualname for d in planted.dead()}
    # a path under repro. names a use; a bare string such as a dict key
    # does not
    assert dead == {"exported_only", "only_from_dead", "dead_caller",
                    "recursive", "in_docstring", "kept", "kept_helper",
                    "Live.uncalled", "Dead", "Dead.called", "by_dict_key"}
    # a kept definition keeps what it uses
    kept = {d.qualname for d in planted.dead({"repro.planted:kept"})}
    assert kept == dead - {"kept", "kept_helper"}


@pytest.mark.parametrize("string, is_use", [
    ("repro.planted:target", True),
    ("repro.planted.target", True),
    ("target", False),                    # a dict key or attribute name
    ("planted.target", False),            # dotted, but no path under repro.
    ("reprox.planted:target", False),
    ("repro.planted:target now", False),  # prose that starts with a path
])
def test_a_string_is_a_use_only_as_a_path_under_repro(string, is_use):
    user = f"KEY = {string!r}\n"
    dead = {d.qualname for d in Scan({"repro.planted": "def target(): pass\n"},
                                     [user]).dead()}
    assert dead == (set() if is_use else {"target"})


def test_the_scan_catches_a_dead_definition_planted_in_the_tree():
    sources, users = _tree_sources()
    module = "repro.audit.kernel"
    sources[module] += "\n\ndef planted_dead_helper(job):\n    return job\n"
    dead = {d.key for d in Scan(sources, users).dead(set(ALLOWED))}
    assert dead == {f"{module}:planted_dead_helper"}


if __name__ == "__main__":
    scan = Scan(*_tree_sources())
    found = scan.dead()
    unexplained = {d.key for d in scan.dead(set(ALLOWED))}
    outer = [d for d in found if d.parent not in found]
    for d in sorted(outer, key=lambda d: d.key):
        mark = ("  [allowed]" if d.key in ALLOWED
                else "" if d.key in unexplained else "  [kept by an allowed one]")
        print(f"{d.lines:5d}  {d.key}{mark}")
    print(f"{len(outer)} definitions, {sum(d.lines for d in outer)} lines",
          file=sys.stderr)
