"""The unified error taxonomy: every failure the library raises on purpose.

All deliberate errors derive from :class:`ReproError`, so embedding
applications (and :mod:`repro.serve`, which maps these classes onto HTTP
status codes) can catch one base instead of guessing which ``ValueError``
came from where.  Each subclass also keeps its historical builtin base —
``FormatError`` *is a* ``ValueError`` — so pre-taxonomy call sites that
catch builtins keep working unchanged.

The hierarchy::

    ReproError
    ├── FormatError        input that cannot be understood (bad file
    │   │                  extension, undecodable payload, bad archive)
    │   └── ColstoreError  (repro.io.colstore: invalid .npz archive)
    ├── ShardLayoutError   an operation conflicts with a sharded store's
    │                      fixed manifest layout
    └── IngestError        a malformed record (or record stream) on the
                           ingest path, carrying the record's position

:mod:`repro.serve` adds service-side subclasses (not-found, backpressure)
in :mod:`repro.serve.errors` and maps the whole family to status codes.
"""

from __future__ import annotations

__all__ = ["ReproError", "FormatError", "ShardLayoutError", "IngestError"]


class ReproError(Exception):
    """Base class of every error the library raises deliberately.

    >>> from repro import api
    >>> try:
    ...     api.load("attacks.xyz")
    ... except api.ReproError as exc:
    ...     print(type(exc).__name__)
    FormatError
    """


class FormatError(ReproError, ValueError):
    """Input whose format cannot be understood or inferred.

    Raised by :func:`repro.api.load` for unrecognised file extensions, by
    :func:`repro.api.open` / :func:`repro.api.context` for source objects
    they cannot dispatch on, and by the serve codec for undecodable
    request payloads.  Subclasses ``ValueError`` for compatibility.

    >>> from repro import api
    >>> api.load("attacks.xyz")
    Traceback (most recent call last):
    repro.errors.FormatError: cannot infer format of attacks.xyz: expected .jsonl, .csv or .npz
    """


class ShardLayoutError(ReproError, ValueError):
    """An operation conflicts with a sharded store's fixed layout.

    A sharded store's time partition is pinned by its manifest; asking
    :func:`repro.api.load` to re-partition one in place raises this
    (re-partition explicitly via ``ddos-repro convert --shards``).

    >>> from repro import api
    >>> ds = api.generate(scale=0.005)
    >>> from repro.io.colstore import save_sharded_npz
    >>> import tempfile, os
    >>> store = save_sharded_npz(ds, os.path.join(tempfile.mkdtemp(), "store"), shards=2)
    >>> api.load(store, shards=4)
    Traceback (most recent call last):
    repro.errors.ShardLayoutError: ...already a sharded store...
    """


class IngestError(ReproError, ValueError):
    """A malformed record (or record stream) was handed to the ingest path.

    ``index`` is the position of the offending record in the input
    iterable (None when the whole stream is at fault, e.g. empty input).

    >>> from repro import api
    >>> api.ingest([])
    Traceback (most recent call last):
    repro.errors.IngestError: no records to ingest
    """

    def __init__(self, message: str, index: int | None = None) -> None:
        super().__init__(message if index is None else f"record #{index}: {message}")
        self.index = index
