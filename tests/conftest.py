"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from typing import Iterable, NamedTuple

import pytest

from repro.core.events import Phase, PhaseKind
from repro.core.homophase import LocalPlan, pack_requests
from repro.core.plan import StaticAllocationPlan
from repro.gpu.device import Device, GIB, MIB
from repro.workloads.models import get_model
from repro.workloads.parallelism import ParallelismConfig
from repro.workloads.tracegen import TraceGenerator
from repro.workloads.training import TrainingConfig
from tests.trace_oracle import MemoryRequest


def make_phase(index: int, kind: PhaseKind = PhaseKind.FORWARD, microbatch: int = 0) -> Phase:
    """Convenience constructor for phases in unit tests."""
    return Phase(index=index, kind=kind, microbatch=microbatch)


def make_request(
    req_id: int,
    size: int,
    alloc_time: int,
    free_time: int,
    *,
    alloc_phase: Phase | None = None,
    free_phase: Phase | None = None,
    dyn: bool = False,
    alloc_module: str = "",
    free_module: str = "",
) -> MemoryRequest:
    """Convenience constructor for memory requests in unit tests."""
    alloc_phase = alloc_phase or make_phase(0, PhaseKind.FORWARD)
    free_phase = free_phase or make_phase(1, PhaseKind.BACKWARD)
    return MemoryRequest(
        req_id=req_id,
        size=size,
        alloc_time=alloc_time,
        free_time=free_time,
        alloc_phase=alloc_phase,
        free_phase=free_phase,
        dyn=dyn,
        alloc_module=alloc_module,
        free_module=free_module or alloc_module,
    )


def pack(requests, *, phase_span: tuple[int, int] | None = None) -> LocalPlan:
    """Pack request objects: the planner's sorted int rows, then the sweep."""
    rows = sorted((m.alloc_time, m.req_id, m.size, m.free_time) for m in requests)
    return pack_requests(rows, phase_span=phase_span)


class AllocationDecision(NamedTuple):
    """One row of a static plan: a request's planning fields and its address."""

    req_id: int
    size: int
    alloc_time: int
    free_time: int
    address: int

    @property
    def end_address(self) -> int:
        return self.address + self.size

    def conflicts_with(self, other: "AllocationDecision") -> bool:
        """True when the two decisions overlap in both space and time."""
        return (
            self.address < other.end_address
            and other.address < self.end_address
            and self.alloc_time < other.free_time
            and other.alloc_time < self.free_time
        )


def decisions_of(plan: StaticAllocationPlan) -> tuple[AllocationDecision, ...]:
    """The plan's rows as :class:`AllocationDecision` tuples."""
    return tuple(
        map(
            AllocationDecision,
            plan.req_id, plan.size, plan.alloc_time, plan.free_time, plan.address,
        )
    )


def plan_of(decisions: Iterable[AllocationDecision], pool_size: int = 0) -> StaticAllocationPlan:
    """A static plan holding ``decisions`` (pool size 0: the highest end address)."""
    columns = [list(column) for column in zip(*decisions)] or [[] for _ in range(5)]
    return StaticAllocationPlan(*columns, pool_size=pool_size)


def decide(request: MemoryRequest, address: int) -> AllocationDecision:
    """The plan row placing ``request`` at ``address``."""
    return AllocationDecision(
        request.req_id, request.size, request.alloc_time, request.free_time, address
    )


def run_job(config: TrainingConfig, allocator_name: str, *, ctx=None, **options):
    """One whole job through ``run_jobs``; ``options`` are ``SweepPoint.build``'s."""
    from repro.simulator.runner import run_jobs
    from repro.sweep.spec import SweepPoint

    point = SweepPoint.build(config, allocator_name, **options)
    ((_, job, _),) = run_jobs([(None, point)], ctx=ctx)
    return job


@pytest.fixture
def device() -> Device:
    """A 16 GiB test device."""
    return Device(name="test-16g", capacity=16 * GIB)


@pytest.fixture
def small_device() -> Device:
    """A 64 MiB device, handy for forcing OOM paths."""
    return Device(name="test-64m", capacity=64 * MIB)


@pytest.fixture(scope="session")
def tiny_dense_config() -> TrainingConfig:
    """A small dense training configuration usable across tests."""
    return TrainingConfig(
        model=get_model("gpt2-345m"),
        parallelism=ParallelismConfig(tensor_parallel=1, pipeline_parallel=4, data_parallel=2),
        micro_batch_size=4,
        num_microbatches=8,
        label="test-dense",
    )


@pytest.fixture(scope="session")
def tiny_moe_config() -> TrainingConfig:
    """A small MoE training configuration usable across tests."""
    return TrainingConfig(
        model=get_model("qwen1.5-moe-a2.7b"),
        parallelism=ParallelismConfig(
            tensor_parallel=1, pipeline_parallel=4, data_parallel=2, expert_parallel=4
        ),
        micro_batch_size=1,
        num_microbatches=4,
        label="test-moe",
    )


@pytest.fixture(scope="session")
def dense_trace(tiny_dense_config):
    """A generated dense trace shared by the integration tests."""
    return TraceGenerator(tiny_dense_config, seed=1).generate()


@pytest.fixture(scope="session")
def moe_trace(tiny_moe_config):
    """A generated MoE trace (with dynamic requests) shared by the tests."""
    return TraceGenerator(tiny_moe_config, seed=1).generate()
