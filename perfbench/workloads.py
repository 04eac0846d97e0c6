"""The benchmark's workloads: what each sends and to how many tenants.

The generator (gen/main.cpp) receives these settings as flags; this table
is the only place they are written down. Every field is part of a result's
config fingerprint, so two results of different settings never compare.
Why each workload exists is in README.md and BENCHMARK.json.
"""

import json
from dataclasses import asdict, dataclass
from typing import Optional, Tuple

# The fleet every workload runs against: two `hemul_shard --workers 2`
# daemons behind one `hemul_router` (4 PE lanes on a 4-core host).
SHARDS = 2
WORKERS_PER_SHARD = 2

@dataclass(frozen=True)
class Workload:
    name: str
    params: str            # DghvParams preset: toy | medium | paper
    gamma: int             # ciphertext bits of that preset
    tenants: int
    connections: int       # router connections; tenant t sends on connection t % connections
    circuits: Tuple[str, ...]
    assign: str            # "tenant": tenant t sends circuits[t % k]; "request": seeded per request
    loop: str              # closed | open
    rate_rps: Optional[float]  # open loop: Poisson arrival rate
    latency_limit_ms: float    # slo_attainment limit
    deadline_ms: float         # per-request client budget; later = kTimeout
    pool: int              # pre-encrypted ciphertexts per bit value and tenant
    bitexact: int          # answers re-checked against in-process Dghv::multiply
    setup_repeats: int     # set-ups per run (fresh daemons each); setup_s is their median
    tail_slices: int       # latency_tail_ms is the median tail over this many time slices

    def generator_flags(self):
        flags = ["--params", self.params, "--tenants", str(self.tenants),
                 "--connections", str(self.connections),
                 "--circuits", ",".join(self.circuits), "--assign", self.assign,
                 "--loop", self.loop, "--lanes", str(WORKERS_PER_SHARD),
                 "--deadline-ms", repr(self.deadline_ms), "--pool", str(self.pool),
                 "--bitexact", str(self.bitexact)]
        if self.rate_rps is not None:
            flags += ["--rate", repr(self.rate_rps)]
        return flags

    def describe(self):
        """The settings as plain JSON values (tuples become lists, so a
        description survives a round trip through a result file)."""
        return json.loads(json.dumps(asdict(self)))


WORKLOADS = {
    w.name: w for w in (
        # The paper's unit of work: reduction- and transform-bound.
        Workload(
            name="paper_and",
            params="paper", gamma=786432, tenants=4, connections=4, circuits=("and",),
            assign="tenant", loop="closed", rate_rps=None,
            latency_limit_ms=3000.0, deadline_ms=60000.0, pool=4, bitexact=4,
            setup_repeats=3, tail_slices=1),
        # Multi-level circuits that coalesce: scheduler, SSA and NTT show.
        Workload(
            name="medium_mix",
            params="medium", gamma=65536, tenants=8, connections=8,
            circuits=("mul/2/carry-save", "adder/4/carry-save"),
            assign="tenant", loop="closed", rate_rps=None,
            latency_limit_ms=1000.0, deadline_ms=30000.0, pool=16, bitexact=0,
            setup_repeats=15, tail_slices=3),
        # One AND per request at medium size: the reduction, the net and the
        # admission path, without multi-level wavefronts or spectrum reuse.
        Workload(
            name="medium_and",
            params="medium", gamma=65536, tenants=8, connections=8, circuits=("and",),
            assign="tenant", loop="closed", rate_rps=None,
            latency_limit_ms=250.0, deadline_ms=30000.0, pool=16, bitexact=4,
            setup_repeats=15, tail_slices=3),
        # Cheap requests on a schedule (about half the closed-loop capacity):
        # net, router, admission and coordinator set the latency.
        Workload(
            name="toy_open",
            params="toy", gamma=4096, tenants=32, connections=4,
            circuits=("and", "mul/2/carry-save"),
            assign="request", loop="open", rate_rps=800.0,
            latency_limit_ms=50.0, deadline_ms=5000.0, pool=16, bitexact=0,
            setup_repeats=9, tail_slices=28),
    )
}
