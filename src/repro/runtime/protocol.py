"""The control-plane wire protocol between coordinator and workers.

**Commands** (coordinator -> worker, over the command pipe) are plain
dicts with an ``op``; a pipe message is one command, or a list of them
— a node's share of one ``ChainRun._run_tasks`` batch.  ``_run_tasks``
stamps every task command with three fields the worker echoes back
verbatim:

* ``key`` — the task's identity in the dispatching batch, e.g.
  ``("map", job, task)``, ``("reduce", job, partition, split, n_splits)``,
  ``("replicate", job, partition, split, n_splits, target)``,
  ``("drop", job, task)``, ``("drop-job", job, node)``,
  ``("reclaim", anchor, node)``; the sweep after a speculative loser is
  ``("sweep", *<the losing attempt's key>)``.  Keys are unique among
  the commands in flight, so a reply can only match its own command;
* ``epoch`` — the pool's dispatch epoch at send time (a death bumps it);
* ``chain`` — the chain id namespacing the task's files (``None`` in
  single-chain mode).

**Events** (worker -> coordinator, over the event pipe) are all one
:class:`Event`.  Its first four fields are always ``(kind, node, epoch,
chain)``; readiness and heartbeats belong to the pool, not to a chain,
and carry ``epoch = chain = None``.  The coordinator decides whether an
event still matters with one guard — current epoch, own chain, ``key``
outstanding in the running batch — and never reconstructs a key from an
event's payload.  This module is the only place that knows the shape.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional

#: ops that a worker answers as tasks, count as in-flight load on the
#: pool's progress tracker, and (map/reduce) may be speculated
TASK_OPS = ("map", "reduce", "replicate")

#: op -> kind of the event reporting its completion
DONE = {
    "map": "map-done",
    "reduce": "reduce-done",
    "replicate": "replica-done",
    "drop": "dropped",
    "drop-piece": "piece-dropped",
    "drop-job": "job-dropped",
    "reclaim": "reclaimed",
}

#: completion kinds of :data:`TASK_OPS`
TASK_DONE = frozenset(DONE[op] for op in TASK_OPS)


class Event(NamedTuple):
    """One worker -> coordinator message.

    ``kind`` is ``"ready"``, ``"hb"``, a :data:`DONE` value,
    ``"task-failed"`` (a shuffle fetch source is unreachable — retry or
    await the death declaration; or, with result ``"cancelled"``, a
    :data:`TASK_OPS` command the worker skipped or aborted before its
    commit because a newer epoch was on its wire — it wrote nothing, and
    its epoch is by construction not the current one, so it only ever
    settles a speculative race) or ``"task-error"`` (a software bug —
    the chain aborts with the traceback)."""

    kind: str
    node: int
    epoch: Optional[int] = None
    chain: Optional[str] = None
    #: the command's ``key``, echoed (``None`` for a bare command)
    key: Optional[tuple] = None
    #: worker process id (span attribution; the link's pid on ``ready``)
    pid: int = 0
    #: bytes the task pulled over loopback TCP sockets
    fetched: int = 0
    #: bytes the task resolved without a socket (the node's own store)
    local: int = 0
    #: ``ready``: shuffle port; ``map-done``: per-partition record
    #: counts; ``reduce-done``: record count; ``piece-dropped``: bytes
    #: its tombstone hid; ``job-dropped`` / ``reclaimed``: bytes freed;
    #: ``task-failed``: the fetch error or ``"cancelled"``;
    #: ``task-error``: the traceback
    result: Any = None


def ready(node: int, port: int, pid: int) -> Event:
    return Event("ready", node, pid=pid, result=port)


def heartbeat(node: int) -> Event:
    return Event("hb", node)


def reply(kind: str, node: int, cmd: dict, pid: int, result: Any = None,
          fetched: int = 0, local: int = 0) -> Event:
    """The event answering ``cmd``: its key, epoch and chain echoed."""
    return Event(kind, node, cmd.get("epoch"), cmd.get("chain"),
                 cmd.get("key"), pid, fetched, local, result)
