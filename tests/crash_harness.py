"""A process model that can be killed at every ``os``-level call the store makes.

:class:`FaultyOS` patches, on the ``os`` module itself (no constructor
argument, no seam in :mod:`repro.store`), the calls through which the store
mutates its directory — ``open`` for writing, ``write``, ``fsync``,
``replace``, ``unlink``, ``truncate``, ``mkdir`` — records each one made
under the archive root, and can *kill* the process model at the N-th: a
:class:`Crash` (a ``BaseException``, so no ``except Exception`` or
``OSError`` handler in the store gets to tidy up) raised before the call
takes effect, or — for a ``write`` — after a prefix of its bytes has.

What survives the kill is then decided by the durability model.  Every
effect is *volatile* until the ``fsync`` that covers it: bytes written to a
file until that file is fsynced, a name created, renamed or unlinked in a
directory until that directory is.  ``lose=True`` reverts every volatile
effect (the strictest disk: "fsync returned, rename not durable" is the
state after a ``replace`` whose directory fsync had not run yet);
``lose=False`` keeps them all (the disk flushed everything on its own).

Any *other* mutating call under the root — ``os.rename``, ``os.remove``,
a write-mode ``open()`` … — is an :class:`AssertionError`: the enumeration
is complete or the test fails.
"""

from __future__ import annotations

import builtins
import io
import os
from contextlib import contextmanager
from pathlib import Path

_REAL = {name: getattr(os, name) for name in (
    "open", "close", "write", "fsync", "replace", "unlink", "truncate",
    "mkdir")}
_OPEN, _RMDIR = builtins.open, os.rmdir
#: mutating calls the model does not cover: the store must not make them
_UNMODELLED = ("rename", "renames", "remove", "rmdir", "removedirs", "link",
               "symlink", "ftruncate", "pwrite", "pwritev", "writev",
               "fdatasync", "sendfile", "copy_file_range", "posix_fallocate")
_WRITING = os.O_WRONLY | os.O_RDWR | os.O_CREAT | os.O_TRUNC | os.O_APPEND


class Crash(BaseException):
    """The process model was killed here."""


class FaultyOS:
    def __init__(self, root, crash_at=None, cut=None, lose=True):
        self.root = Path(os.path.abspath(root))
        self.crash_at, self.cut, self.lose = crash_at, cut, lose
        #: (operation, path relative to the root, bytes written) per call
        self.trace = []
        self.written = {}         # trace index -> the bytes of that write
        self._fds = {}            # fd -> path, for what was opened under root
        self._volatile = []       # undo closures, oldest first, with their scope

    # -- bookkeeping ---------------------------------------------------------------

    def _inside(self, path):
        try:
            return Path(os.path.abspath(os.fspath(path))).relative_to(self.root)
        except (ValueError, TypeError):
            return None

    def _point(self, operation, relative, data=None):
        """A call the store makes: recorded, and the place to die."""
        index = len(self.trace)
        self.trace.append((operation, relative.as_posix()))
        if data is not None:
            self.written[index] = bytes(data)
        if index == self.crash_at and (self.cut is None or data is None):
            self._die()

    def _die(self):
        if self.lose:
            self.power_loss()
        self._volatile = []
        raise Crash(f"killed at call {self.crash_at}: {self.trace[-1]}")

    def power_loss(self):
        """The machine dies *after* the run: what was never fsynced goes."""
        for _, undo in reversed(self._volatile):
            undo()
        self._volatile = []

    def _until(self, scope, undo):
        self._volatile.append((scope, undo))

    def _durable(self, scope):
        self._volatile = [(held, undo) for held, undo in self._volatile
                          if held != scope]

    @staticmethod
    def _restorer(path, content):
        """Put ``path`` back to ``content`` (``None``: not there) — with the
        real calls: an undo is the disk's doing, not the store's."""
        def remove(victim):
            if victim.is_dir():
                for child in victim.iterdir():
                    remove(child)
                _RMDIR(victim)
            elif victim.exists():
                _REAL["unlink"](victim)

        def undo():
            if content is None:
                return remove(path)
            for parent in reversed(path.parents):
                if not parent.exists():
                    _REAL["mkdir"](parent)
            with _OPEN(path, "wb") as handle:
                handle.write(content)
        return undo

    @staticmethod
    def _content(path):
        return path.read_bytes() if path.is_file() else None

    # -- the patched calls ---------------------------------------------------------

    def open(self, path, flags, mode=0o777, **kwargs):
        relative = None if kwargs else self._inside(path)
        if relative is None:
            return _REAL["open"](path, flags, mode, **kwargs)
        full = self.root / relative
        if flags & _WRITING:
            before = self._content(full)
            if before is None or flags & os.O_TRUNC:
                self._point("open", relative)
                # the name is the directory's to keep, the (lost) bytes the
                # file's — one undo, dropped once both have been fsynced
                restore = self._restorer(full, before)
                if before is None:
                    self._until(("names", full.parent), restore)
                else:
                    self._until(("bytes", full), restore)
        fd = _REAL["open"](path, flags, mode)
        self._fds[fd] = full
        return fd

    def close(self, fd):
        self._fds.pop(fd, None)
        return _REAL["close"](fd)

    def write(self, fd, data):
        path = self._fds.get(fd)
        if path is None:
            return _REAL["write"](fd, data)
        index = len(self.trace)
        self._point("write", path.relative_to(self.root), data)
        size = os.fstat(fd).st_size
        self._until(("bytes", path),
                    lambda: path.exists() and _REAL["truncate"](path, size))
        if index == self.crash_at:  # a cut write: a prefix lands, then death
            _REAL["write"](fd, bytes(data)[:self.cut])
            self._die()
        return _REAL["write"](fd, data)

    def fsync(self, fd):
        path = self._fds.get(fd)
        if path is not None:
            self._point("fsync", path.relative_to(self.root))
            self._durable(("names", path) if path.is_dir() else ("bytes", path))
            return None  # the model decides what is durable, not the disk
        return _REAL["fsync"](fd)

    def replace(self, source, destination, **kwargs):
        relative = self._inside(destination)
        if relative is None or kwargs:
            return _REAL["replace"](source, destination, **kwargs)
        source, destination = Path(os.path.abspath(source)), self.root / relative
        assert self._inside(source) is not None and \
            source.parent == destination.parent, (source, destination)
        self._point("replace", relative)
        moved, replaced = self._content(source), self._content(destination)
        _REAL["replace"](source, destination)

        def undo():
            self._restorer(destination, replaced)()
            self._restorer(source, moved)()
        self._until(("names", destination.parent), undo)

    def unlink(self, path, **kwargs):
        relative = self._inside(path)
        if relative is None or kwargs:
            return _REAL["unlink"](path, **kwargs)
        full = self.root / relative
        self._point("unlink", relative)
        self._until(("names", full.parent),
                    self._restorer(full, self._content(full)))
        return _REAL["unlink"](path)

    def truncate(self, path, length):
        relative = self._inside(path) if not isinstance(path, int) else None
        if relative is None:
            assert not isinstance(path, int) or path not in self._fds
            return _REAL["truncate"](path, length)
        full = self.root / relative
        self._point("truncate", relative)
        self._until(("bytes", full), self._restorer(full, self._content(full)))
        return _REAL["truncate"](path, length)

    def mkdir(self, path, mode=0o777, **kwargs):
        relative = self._inside(path)
        if relative is None or kwargs:
            return _REAL["mkdir"](path, mode, **kwargs)
        full = self.root / relative
        if not full.exists():
            self._point("mkdir", relative)
            self._until(("names", full.parent), self._restorer(full, None))
        return _REAL["mkdir"](path, mode)

    # -- installation --------------------------------------------------------------

    def _refuse(self, name):
        real = getattr(os, name)

        def refused(*args, **kwargs):
            touched = [arg for arg in args if isinstance(arg, (str, Path))
                       and self._inside(arg) is not None] \
                + [arg for arg in args if isinstance(arg, int)
                   and not isinstance(arg, bool) and arg in self._fds]
            assert not touched, \
                f"os.{name}{args} under the archive root is not modelled"
            return real(*args, **kwargs)
        return refused

    def _guarded_open(self, real):
        def guarded(file, mode="r", *args, **kwargs):
            assert not (set(mode) & set("wax+") and isinstance(file, (str, Path))
                        and self._inside(file) is not None), \
                f"open({file!r}, {mode!r}) under the archive root is not modelled"
            return real(file, mode, *args, **kwargs)
        return guarded

    @contextmanager
    def installed(self):
        saved = {name: getattr(os, name) for name in (*_REAL, *_UNMODELLED)
                 if hasattr(os, name)}
        opens = (builtins.open, io.open)
        try:
            for name in saved:
                setattr(os, name, getattr(self, name) if name in _REAL
                        else self._refuse(name))
            builtins.open = io.open = self._guarded_open(opens[0])
            yield self
        finally:
            for name, real in saved.items():
                setattr(os, name, real)
            builtins.open, io.open = opens


def trace_of(root, action):
    """Run ``action()`` to completion under the model; returns it."""
    model = FaultyOS(root)
    with model.installed():
        action()
    return model


def crash_points(model):
    """Every way to die inside ``model``'s (completed) run: before each
    call, and inside each ``write`` at one byte of every class its data has
    — ``(crash_at, cut, what)``."""
    for index, (operation, target) in enumerate(model.trace):
        yield index, None, f"before {operation} {target}"
        if operation == "write":
            for cut, what in byte_classes(model.written[index]):
                yield index, cut, f"{operation} {target} cut {what}"


def byte_classes(data):
    """One cut offset for every class of byte in ``data``.  A frame file's
    append is parsed: inside the file header, each frame's prefix, header and
    payload, between frames, inside the commit record and one byte short of
    everything; any other write: first byte, middle, one byte short."""
    from repro.store.manifest import _PREFIX, COMMIT_SIZE, FRAMES_MAGIC
    cuts = {1: "after its first byte", len(data) // 2: "in the middle",
            len(data) - 1: "one byte short"}
    position = 0
    if data.startswith(FRAMES_MAGIC):
        position = len(FRAMES_MAGIC) + 1 + data[len(FRAMES_MAGIC)]
        cuts[len(FRAMES_MAGIC) + 1] = "in the file header"
        cuts[position] = "after the file header"
    frame = 0
    while position + _PREFIX.size <= len(data) and data[position] in (1, 2, 3):
        _, header, payload, _ = _PREFIX.unpack_from(data, position)
        if position + _PREFIX.size + header + payload > len(data):
            break
        cuts[position + 3] = f"in frame {frame}'s prefix"
        cuts[position + _PREFIX.size + header // 2] = f"in frame {frame}'s header"
        cuts[position + _PREFIX.size + header + payload // 2] = \
            f"in frame {frame}'s payload"
        position += _PREFIX.size + header + payload
        cuts[position] = f"after frame {frame}"
        frame += 1
    if frame and len(data) - position == COMMIT_SIZE:
        cuts[position + COMMIT_SIZE // 2] = "in the commit record"
    return sorted((cut, what) for cut, what in cuts.items()
                  if 0 < cut < len(data))
