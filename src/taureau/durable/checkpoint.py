"""The orchestration checkpointer: workflows resume, not restart.

A failed workflow (``ExecutionFailed`` out of a state machine's retry
ceiling, or a ``TaskFailed`` node aborting a DAG) conventionally
restarts from the top — re-invoking every step that already succeeded.
The checkpointer journals each completed DAG node and state-machine
task step under a caller-chosen scope key; re-running the workflow with
the same scope skips straight past the journaled steps, re-using their
recorded outputs, and picks up at the first step that never finished.

Checkpoints live inside the :class:`~taureau.durable.journal.
InvocationJournal` document (scope -> step -> result), so they are part
of the same canonical, versioned serialization as the effect logs.
"""

from __future__ import annotations

import typing

__all__ = ["Checkpointer", "CheckpointScope"]


class Checkpointer:
    """Mints :class:`CheckpointScope` handles bound to the journal."""

    def __init__(self, manager):
        self.manager = manager

    def scope(self, key: str) -> "CheckpointScope":
        """The checkpoint scope for one logical workflow run.

        Re-using a key across runs is the resume contract: steps
        completed under the key are skipped on the next run.
        """
        return CheckpointScope(self.manager, key)


class CheckpointScope:
    """One workflow run's view of its journaled step results.

    ``prefix`` namespaces nested regions (parallel branches of a state
    machine checkpoint under ``<state>/b<index>/``) so step names never
    collide across branches.
    """

    __slots__ = ("manager", "key", "prefix")

    def __init__(self, manager, key: str, prefix: str = ""):
        self.manager = manager
        self.key = key
        self.prefix = prefix
        manager.journal.checkpoints.setdefault(key, {})

    def sub(self, segment: str) -> "CheckpointScope":
        """A child scope whose step names nest under ``segment``."""
        return CheckpointScope(
            self.manager, self.key, f"{self.prefix}{segment}/"
        )

    def _steps(self) -> typing.Dict[str, typing.Any]:
        return self.manager.journal.checkpoints[self.key]

    def has(self, step: str) -> bool:
        return f"{self.prefix}{step}" in self._steps()

    def get(self, step: str):
        """The journaled result of a completed step (counts as a hit)."""
        value = self._steps()[f"{self.prefix}{step}"]
        self.manager.counters["checkpoint_hits"].add()
        return value

    def put(self, step: str, value) -> None:
        """Journal a completed step's result under this scope."""
        self._steps()[f"{self.prefix}{step}"] = value
        self.manager.counters["checkpoint_writes"].add()
