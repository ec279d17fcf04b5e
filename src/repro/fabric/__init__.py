"""Cross-host shard fabric: TCP agents, a versioned control plane, migration.

One parent-side router, two link kinds.  The in-box
:class:`~repro.core.runtime.ShardedRuntime` drives its
:class:`~repro.core.runtime.ShardRouter` over pipe links to local worker
processes; this package's :class:`~repro.fabric.control.FabricRuntime`
drives the same router over TCP links to remote **agents**
(:mod:`repro.fabric.agent`).  Each agent is a standalone process serving
one :class:`~repro.core.runtime.ShardWorkerCore` — the same shard brain the
pipe workers run — over the reliable TCP control channel, so the two
deployments cannot drift in semantics.  The TCP link speaks the versioned
CONTROL frame family of :mod:`repro.twopc.wire` (HELLO registration,
seq-tagged COMMAND/REPLY, HEARTBEAT health, streamed METRICS snapshots),
and :meth:`~repro.core.system.PretzelSystem.drain_all_mailboxes_sharded`
runs unchanged on either runtime.

:meth:`FabricRuntime.migrate_agent` moves live shards between agents:
checkpoint the open decrypt windows on host A, restore them bit-identically
on host B, redirect the mailbox hash range, retire A — zero resubmissions,
no email lost or served twice.  :meth:`FabricRuntime.rebalance` picks the
migration itself, using each agent's ``emails_served_total`` as the load
signal.
"""

from repro.fabric.agent import AgentProcess, spawn_local_agent
from repro.fabric.control import (
    FabricRuntime,
    metrics_projection,
    pack_control,
    unpack_control,
)

__all__ = [
    "AgentProcess",
    "FabricRuntime",
    "launch_fabric",
    "metrics_projection",
    "pack_control",
    "spawn_local_agent",
    "unpack_control",
]


def launch_fabric(
    num_agents: int,
    checkpoint_dir=None,
    **runtime_options,
) -> tuple[FabricRuntime, list[AgentProcess]]:
    """Spawn *num_agents* localhost agents and a fabric runtime over them.

    The two-line on-ramp the example, the bench suite and CI smoke use.  The
    caller owns both halves: ``runtime.close()`` retires the agents (they
    exit on BYE), then ``agent.wait()``/``agent.kill()`` reaps the processes.
    """
    agents = [
        spawn_local_agent(shard_index=index, checkpoint_dir=checkpoint_dir)
        for index in range(num_agents)
    ]
    try:
        runtime = FabricRuntime(agents, **runtime_options)
    except BaseException:
        for agent in agents:
            agent.kill()
        raise
    return runtime, agents
