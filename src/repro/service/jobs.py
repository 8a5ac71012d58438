"""The :class:`~repro.service.pool.ShardPool` job: run one
:mod:`repro.ops` operation in a shard.

:func:`run` is a plain top-level function taking only picklable
arguments (the operation's name, its :class:`~repro.ops.Source`
designs and its request) and returning the operation's JSON reply
(:func:`repro.ops.reply`).  Jobs compile *in the worker process* --
shipping an elaborated graph across the process boundary would cost
more than re-elaborating -- and each worker keeps its own warm
:data:`_WORKER_CACHE`, so repeated obligations on one design pay the
compile once per shard, not per request.

Compile failures raise :class:`~repro.lang.errors.ZeusError` in the
worker; the exception pickles back to the server, which renders it as
a structured ``zeus.error/1`` payload.
"""

from __future__ import annotations

from .. import ops

#: Per-worker compile cache (content-hash -> Circuit), populated
#: lazily in each shard process.
_WORKER_CACHE: dict = {}
_WORKER_CACHE_MAX = 32


def _worker_compile(src: ops.Source):
    from .cache import cache_key

    key = cache_key(src.source, src.top, src.strict)
    circuit = _WORKER_CACHE.get(key)
    if circuit is None:
        circuit = ops.compile_design(src)
        if len(_WORKER_CACHE) >= _WORKER_CACHE_MAX:
            _WORKER_CACHE.pop(next(iter(_WORKER_CACHE)))
        _WORKER_CACHE[key] = circuit
    return circuit


def run(op: str, sources: list[ops.Source], request) -> dict:
    """Compile *sources* and return ``ops.<op>(*circuits, request)``'s
    JSON reply."""
    circuits = [_worker_compile(src) for src in sources]
    return ops.reply(getattr(ops, op)(*circuits, request))


def timing_job(source: str, top: str | None, strict: bool,
               *options) -> dict:
    """``run("timing", ...)`` with positional arguments: the design,
    then the :class:`~repro.ops.TimingRequest` fields in order."""
    return run("timing", [ops.Source(source, top, strict)],
               ops.TimingRequest(*options))
