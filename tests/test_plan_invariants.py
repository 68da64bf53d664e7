"""Planner-invariant tests (the sweep engine's safety net).

For randomized traces across dense/MoE/recompute/ZeRO/virtual-pipeline
configurations these tests assert the fundamental guarantees of a
:class:`StaticAllocationPlan`:

* no two requests that are live at the same time overlap in address space
  (checked with an independent brute-force verifier, not ``plan.validate``);
* every decision lies inside the static pool;
* the pool size equals the sum of the memory-layer sizes the global planner
  stacked (and therefore covers the peak static demand);
* every static request receives exactly one decision;
* dynamic reusable spaces never intersect a static decision that is live
  during the HomoLayer group's temporal range.
"""

from __future__ import annotations

import random

import pytest

from repro.core import plan as plan_module
from repro.core.events import Phase, PhaseKind
from repro.core.intervals import IntervalSet
from repro.core.plan import StaticAllocationPlan
from repro.core.profiler import AllocationProfiler, ProfileResult
from repro.core.stalloc import STAllocConfig
from repro.core.synthesizer import PlanSynthesizer
from repro.workloads.models import get_model
from repro.workloads.parallelism import ParallelismConfig
from repro.workloads.tracegen import TraceGenerator
from repro.workloads.training import TrainingConfig
from tests.conftest import AllocationDecision, decide, decisions_of, plan_of
from tests.trace_oracle import MemoryRequest, requests_of, trace_of_requests


def _dense(**overrides) -> TrainingConfig:
    defaults = dict(
        model=get_model("gpt2-345m"),
        parallelism=ParallelismConfig(tensor_parallel=1, pipeline_parallel=4, data_parallel=2),
        micro_batch_size=2,
        num_microbatches=2,
    )
    defaults.update(overrides)
    return TrainingConfig(**defaults)


def _moe(**overrides) -> TrainingConfig:
    defaults = dict(
        model=get_model("qwen1.5-moe-a2.7b"),
        parallelism=ParallelismConfig(
            tensor_parallel=1, pipeline_parallel=4, data_parallel=2, expert_parallel=4
        ),
        micro_batch_size=1,
        num_microbatches=2,
    )
    defaults.update(overrides)
    return TrainingConfig(**defaults)


CONFIG_CASES: dict[str, TrainingConfig] = {
    "dense-naive": _dense(),
    "dense-recompute": _dense(recompute=True),
    "dense-offload": _dense(offload_activations=True),
    "dense-vpp": _dense(
        parallelism=ParallelismConfig(
            tensor_parallel=1, pipeline_parallel=4, data_parallel=2, virtual_pipeline_chunks=2
        )
    ),
    "dense-zero1": _dense(zero_stage=1),
    "dense-zero3": _dense(zero_stage=3),
    "moe": _moe(),
    "moe-recompute": _moe(recompute=True),
}

SEEDS = [0, 1]

_SYNTH_CACHE: dict = {}
_REQUESTS: dict = {}


def synthesize(case: str, seed: int):
    """Profile + synthesize one config case (memoised; the checks share it)."""
    key = (case, seed)
    if key not in _SYNTH_CACHE:
        config = CONFIG_CASES[case]
        trace = TraceGenerator(config, seed=seed, scale=0.5).generate()
        profile = AllocationProfiler().profile(trace)
        plan = PlanSynthesizer(STAllocConfig().synthesizer_config()).synthesize(profile)
        _SYNTH_CACHE[key] = (profile, plan)
        _REQUESTS[key] = requests_of(trace)
    return _SYNTH_CACHE[key]


def case_requests(case: str, seed: int) -> list[MemoryRequest]:
    """The case's requests as objects, paired by the oracle."""
    synthesize(case, seed)
    return _REQUESTS[case, seed]


# ---------------------------------------------------------------------- #
# §5.2 over request objects: the oracle for the columnar HomoLayer groups
# ---------------------------------------------------------------------- #
def object_homolayer_groups(requests) -> dict[tuple[str, str], list[MemoryRequest]]:
    """The dynamic requests by ``(alloc module, free module)``, in request order."""
    groups: dict[tuple[str, str], list[MemoryRequest]] = {}
    for request in requests:
        if request.dyn:
            groups.setdefault(request.layer_pair, []).append(request)
    return groups


def object_temporal_range(key, members, module_spans) -> tuple[int, int]:
    """``T(a, b) = [a.start, b.end]``, widened to cover the members themselves."""
    starts = [member.alloc_time for member in members]
    ends = [member.free_time for member in members]
    if key[0] in module_spans:
        starts.append(module_spans[key[0]][0])
    if key[1] in module_spans:
        ends.append(module_spans[key[1]][1])
    return min(starts), max(ends)


def object_reusable_spaces(requests, static_plan, module_spans) -> dict:
    """Eq. 4-6 by construction: the pool minus every decision live in the range."""
    spaces = {}
    for key, members in object_homolayer_groups(requests).items():
        start, end = object_temporal_range(key, members, module_spans)
        space = IntervalSet.full(0, static_plan.pool_size)
        for decision in decisions_of(static_plan):
            if decision.size and decision.alloc_time <= end and decision.free_time > start:
                space.remove(decision.address, decision.address + decision.size)
        spaces[key] = space
    return spaces


def assert_no_spatio_temporal_overlap(plan: StaticAllocationPlan) -> None:
    """Independent O(n^2) verifier for the no-memory-stomping property."""
    decisions = sorted(decisions_of(plan), key=lambda d: d.address)
    for i, a in enumerate(decisions):
        for b in decisions[i + 1 :]:
            if b.address >= a.end_address:
                break  # sorted by address: no later decision can overlap a
            if a.alloc_time < b.free_time and b.alloc_time < a.free_time:
                raise AssertionError(
                    f"requests {a.req_id} and {b.req_id} overlap in "
                    f"space ([{a.address}, {a.end_address}) vs [{b.address}, {b.end_address})) "
                    f"and time ([{a.alloc_time}, {a.free_time}) vs "
                    f"[{b.alloc_time}, {b.free_time}))"
                )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", sorted(CONFIG_CASES))
class TestStaticPlanInvariants:
    def test_no_spatio_temporal_overlap(self, case, seed):
        _, plan = synthesize(case, seed)
        assert decisions_of(plan.static_plan)
        assert_no_spatio_temporal_overlap(plan.static_plan)

    def test_every_decision_fits_inside_pool(self, case, seed):
        _, plan = synthesize(case, seed)
        for decision in decisions_of(plan.static_plan):
            assert decision.address >= 0
            assert decision.end_address <= plan.pool_size

    def test_pool_size_is_sum_of_layer_sizes(self, case, seed):
        _, plan = synthesize(case, seed)
        layer_sizes = plan.synthesis_info["layers"]["layer_sizes"]
        assert plan.pool_size == sum(layer_sizes)
        assert max(d.end_address for d in decisions_of(plan.static_plan)) <= plan.pool_size

    def test_pool_covers_peak_static_demand(self, case, seed):
        _, plan = synthesize(case, seed)
        assert plan.pool_size >= plan.synthesis_info["peak_static_demand_bytes"]

    def test_plan_covers_every_static_request_exactly_once(self, case, seed):
        profile, plan = synthesize(case, seed)
        planned = plan.static_plan.req_id
        assert len(planned) == len(set(planned))
        columns = profile.columns
        assert set(planned) == {r for r, dyn in zip(columns.req_id, columns.dyn) if not dyn}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", ["moe", "moe-recompute"])
class TestDynamicSpaceInvariants:
    def test_reusable_spaces_lie_inside_pool(self, case, seed):
        _, plan = synthesize(case, seed)
        assert plan.dynamic_reusable_spaces
        for spaces in plan.dynamic_reusable_spaces.values():
            for interval in spaces:
                assert 0 <= interval.start < interval.end <= plan.pool_size

    def test_reusable_spaces_avoid_live_static_decisions(self, case, seed):
        """No reusable byte may belong to a static request live in the group's range."""
        profile, plan = synthesize(case, seed)
        groups = object_homolayer_groups(case_requests(case, seed))
        for key, members in groups.items():
            spaces = plan.dynamic_reusable_spaces[key]
            if not spaces:
                continue
            start, end = object_temporal_range(key, members, profile.module_spans)
            for decision in decisions_of(plan.static_plan):
                if decision.alloc_time <= end and decision.free_time > start:
                    for interval in spaces:
                        assert not (
                            interval.start < decision.end_address
                            and decision.address < interval.end
                        ), (
                            f"reusable interval [{interval.start}, {interval.end}) of group "
                            f"{key} overlaps live static request {decision.req_id}"
                        )

    def test_every_dynamic_request_is_routed_to_its_group(self, case, seed):
        profile, plan = synthesize(case, seed)
        routed = {r.req_id: r.layer_pair for r in case_requests(case, seed) if r.dyn}
        assert plan.dynamic_request_groups == routed


ABLATIONS = {
    "no-fusion": STAllocConfig(enable_fusion=False),
    "no-gap-insertion": STAllocConfig(enable_gap_insertion=False),
    "ascending-order": STAllocConfig(descending_size_order=False),
    "no-dynamic-reuse": STAllocConfig(enable_dynamic_reuse=False),
}


@pytest.mark.parametrize("case", ["dense-recompute", "moe"])
@pytest.mark.parametrize("ablation", sorted(ABLATIONS))
class TestAblationSafety:
    def test_ablated_plans_remain_safe(self, case, ablation):
        """Every ablation may cost memory, but must never produce stomping."""
        config = CONFIG_CASES[case]
        trace = TraceGenerator(config, seed=0, scale=0.5).generate()
        profile = AllocationProfiler().profile(trace)
        stalloc_config = ABLATIONS[ablation]
        plan = PlanSynthesizer(stalloc_config.synthesizer_config()).synthesize(profile)
        assert_no_spatio_temporal_overlap(plan.static_plan)
        for decision in decisions_of(plan.static_plan):
            assert decision.end_address <= plan.pool_size


class TestRandomizedRequestStreams:
    """Synthesizer safety on adversarial random workloads (not just tracegen's)."""

    @staticmethod
    def _random_profile(seed: int) -> ProfileResult:
        rng = random.Random(seed)
        phases = [
            Phase(index=0, kind=PhaseKind.FORWARD, microbatch=0),
            Phase(index=1, kind=PhaseKind.FORWARD, microbatch=1),
            Phase(index=2, kind=PhaseKind.BACKWARD, microbatch=1),
            Phase(index=3, kind=PhaseKind.BACKWARD, microbatch=0),
        ]
        requests = []
        clock = 0
        for req_id in range(rng.randint(40, 120)):
            alloc_time = clock
            clock += rng.randint(1, 3)
            lifespan = rng.randint(1, 50)
            size = 512 * rng.randint(1, 4096)
            alloc_phase = phases[min(alloc_time * len(phases) // 400, len(phases) - 1)]
            free_phase = phases[min((alloc_time + lifespan) * len(phases) // 400, len(phases) - 1)]
            requests.append(
                MemoryRequest(
                    req_id=req_id,
                    size=size,
                    alloc_time=alloc_time,
                    free_time=alloc_time + lifespan,
                    alloc_phase=alloc_phase,
                    free_phase=free_phase,
                )
            )
        return ProfileResult(trace_of_requests(requests))

    @pytest.mark.parametrize("seed", range(8))
    def test_random_streams_plan_safely(self, seed):
        profile = self._random_profile(seed)
        plan = PlanSynthesizer(STAllocConfig().synthesizer_config()).synthesize(profile)
        assert_no_spatio_temporal_overlap(plan.static_plan)
        assert len(plan.static_plan) == profile.num_requests
        layer_sizes = plan.synthesis_info["layers"]["layer_sizes"]
        assert plan.pool_size == sum(layer_sizes)
        for decision in decisions_of(plan.static_plan):
            assert 0 <= decision.address and decision.end_address <= plan.pool_size


class TestValidateDetectsBrokenPlans:
    """plan.validate() must agree with the independent checker on bad plans."""

    @staticmethod
    def _request(req_id: int, size: int, alloc_time: int, free_time: int) -> MemoryRequest:
        phase = Phase(index=0, kind=PhaseKind.FORWARD, microbatch=0)
        return MemoryRequest(
            req_id=req_id,
            size=size,
            alloc_time=alloc_time,
            free_time=free_time,
            alloc_phase=phase,
            free_phase=phase,
        )

    def test_rejects_spatio_temporal_overlap(self):
        plan = plan_of(
            [decide(self._request(0, 1024, 0, 10), 0), decide(self._request(1, 1024, 5, 15), 512)],
            pool_size=4096,
        )
        with pytest.raises(ValueError, match="memory stomping"):
            plan.validate()
        with pytest.raises(AssertionError):
            assert_no_spatio_temporal_overlap(plan)

    def test_accepts_time_disjoint_space_overlap(self):
        plan = plan_of(
            [decide(self._request(0, 1024, 0, 5), 0), decide(self._request(1, 1024, 5, 10), 0)],
            pool_size=1024,
        )
        plan.validate()
        assert_no_spatio_temporal_overlap(plan)

    def test_rejects_decision_beyond_pool(self):
        plan = plan_of(
            [decide(self._request(0, 2048, 0, 5), 0)], pool_size=1024
        )
        with pytest.raises(ValueError, match="beyond the pool size"):
            plan.validate()


class TestValidateAgreesWithBruteForce:
    """``validate()`` and the O(n^2) checker above give one verdict, case by case.

    Nothing here comes from ``tracegen``: sizes, lifetimes and addresses are
    drawn directly, a valid plan is built by first-fit over the drawn
    lifetimes, and then one corruption is applied to it.
    """

    CORRUPTIONS = (
        "none",
        "shift_into_neighbour",
        "duplicate_touching",
        "duplicate_overlapping",
        "nest_inside",
        "equal_ticks",
        "past_pool",
    )

    _request = staticmethod(TestValidateDetectsBrokenPlans._request)

    @classmethod
    def _valid_plan(cls, rng: random.Random) -> StaticAllocationPlan:
        """First-fit placement of random requests: valid by construction."""
        placed: list[AllocationDecision] = []
        for req_id in range(rng.randint(2, 40)):
            alloc_time = rng.randint(0, 60)
            free_time = alloc_time + rng.randint(1, 30)
            size = 256 * rng.randint(1, 16)
            address = 0
            for other in sorted(placed, key=lambda d: d.address):
                if not (other.alloc_time < free_time and alloc_time < other.free_time):
                    continue
                if address + size <= other.address:
                    break
                address = max(address, other.end_address)
            placed.append(AllocationDecision(req_id, size, alloc_time, free_time, address))
        rng.shuffle(placed)  # the verdict may not depend on decision order
        slack = rng.choice([0, 0, 512])
        return plan_of(
            placed, pool_size=max(d.end_address for d in placed) + slack
        )

    @classmethod
    def _corrupt(
        cls, plan: StaticAllocationPlan, how: str, rng: random.Random
    ) -> StaticAllocationPlan:
        """The plan with one corruption applied to its row view."""
        decisions = list(decisions_of(plan))
        victim = rng.randrange(len(decisions))
        target = decisions[victim]
        size, alloc_time, free_time = target.size, target.alloc_time, target.free_time
        next_id = len(decisions)
        if how == "none":
            return plan
        if how == "shift_into_neighbour":
            # Move one decision onto the address range of one live with it.
            live = [
                d
                for d in decisions
                if d is not target and d.alloc_time < free_time and alloc_time < d.free_time
            ]
            if not live:
                return plan
            neighbour = rng.choice(live)
            shifted = neighbour.address + rng.randrange(neighbour.size)
            decisions[victim] = target._replace(address=shifted)
        elif how == "duplicate_touching":
            # Same address, lifetime starting on the victim's free tick: legal.
            decisions.append(
                AllocationDecision(
                    next_id, size, free_time, free_time + rng.randint(1, 9), target.address
                )
            )
        elif how == "duplicate_overlapping":
            # Same address, lifetime starting one tick before the free: stomps.
            decisions.append(
                AllocationDecision(next_id, size, free_time - 1, free_time + 3, target.address)
            )
        elif how == "nest_inside":
            # An interval strictly inside the victim's in space and in time.
            if size < 3 or free_time - alloc_time < 3:
                return plan
            decisions.append(
                AllocationDecision(
                    next_id, size - 2, alloc_time + 1, free_time - 1, target.address + 1
                )
            )
        elif how == "equal_ticks":
            # Chains on the victim's address that meet it exactly at its alloc
            # and at its free tick (before .. victim .. after): legal, unless
            # something else already occupied those bytes at those times.
            before_start = max(0, alloc_time - rng.randint(1, 5))
            if before_start < alloc_time:
                decisions.append(
                    AllocationDecision(next_id, size, before_start, alloc_time, target.address)
                )
            decisions.append(
                AllocationDecision(next_id + 1, size, free_time, free_time + 1, target.address)
            )
        elif how == "past_pool":
            top = max(decisions, key=lambda d: d.end_address)
            decisions[decisions.index(top)] = top._replace(
                address=plan.pool_size - top.size + rng.randint(1, 64)
            )
        else:  # pragma: no cover - guards the parametrization
            raise AssertionError(how)
        return plan_of(decisions, pool_size=plan.pool_size)

    @staticmethod
    def _oracle_verdict(plan: StaticAllocationPlan) -> str:
        """ok / stomping / pool, decided without ``validate``."""
        if any(d.end_address > plan.pool_size for d in decisions_of(plan)):
            return "pool"
        try:
            assert_no_spatio_temporal_overlap(plan)
        except AssertionError:
            return "stomping"
        return "ok"

    @staticmethod
    def _validate_verdict(plan: StaticAllocationPlan) -> str:
        try:
            plan.validate()
        except ValueError as error:
            message = str(error)
            if "beyond the pool size" in message:
                return "pool"
            assert message.startswith("memory stomping: requests "), message
            return "stomping"
        return "ok"

    @pytest.mark.parametrize("corruption", CORRUPTIONS)
    def test_same_verdict_on_every_case(self, corruption):
        verdicts = {"ok": 0, "stomping": 0, "pool": 0}
        for seed in range(60):  # 7 corruptions x 60 seeds = 420 cases
            rng = random.Random(f"{corruption}/{seed}")
            plan = self._valid_plan(rng)
            assert self._oracle_verdict(plan) == "ok"
            plan = self._corrupt(plan, corruption, rng)
            expected = self._oracle_verdict(plan)
            assert self._validate_verdict(plan) == expected, (corruption, seed)
            verdicts[expected] += 1
        # Each corruption must actually produce the verdict it is named for.
        if corruption == "none":
            assert verdicts == {"ok": 60, "stomping": 0, "pool": 0}
        elif corruption == "past_pool":
            assert verdicts == {"ok": 0, "stomping": 0, "pool": 60}
        elif corruption in ("duplicate_touching", "equal_ticks"):
            # Touching the victim is legal; a later tenant of the same bytes
            # may still make the added decision stomp.
            assert verdicts["ok"] >= 30 and verdicts["pool"] == 0
        else:  # a shifted decision may also leave the pool, which is reported first
            assert verdicts["stomping"] >= 30

    def test_reported_pair_really_conflicts(self):
        """The two request ids named in the message overlap in space and time."""
        for seed in range(40):
            rng = random.Random(f"pair/{seed}")
            plan = self._corrupt(self._valid_plan(rng), "duplicate_overlapping", rng)
            with pytest.raises(ValueError, match="memory stomping") as caught:
                plan.validate()
            words = str(caught.value).split()
            by_id = {decision.req_id: decision for decision in decisions_of(plan)}
            first, second = by_id[int(words[3])], by_id[int(words[5])]
            assert first is not second and first.conflicts_with(second)

    def test_validation_cost_is_n_log_n(self, monkeypatch):
        """20 000 decisions multiplexed in time over a few addresses.

        Address reuse over time is what a good plan looks like and what made
        the address-ordered pairwise sweep quadratic.  Probes are counted, not
        timed: one ``bisect`` per alloc and per free (each at most
        ``log2(live) + 1`` comparisons) and at most two neighbour checks per
        decision.
        """
        n, lanes = 20_000, 4
        plan = plan_of(
            (
                AllocationDecision(i, 1024, i // lanes, i // lanes + 1, 1024 * (i % lanes))
                for i in range(n)
            ),
            pool_size=1024 * lanes,
        )
        probes = []
        real_bisect = plan_module.bisect_left

        def counting_bisect(live_starts, address):
            probes.append(len(live_starts))
            return real_bisect(live_starts, address)

        monkeypatch.setattr(plan_module, "bisect_left", counting_bisect)
        plan.validate()
        assert len(probes) == 2 * n
        # The live list never holds more than one decision per lane, so the
        # neighbour slice behind each probe is at most two entries long.
        assert max(probes) <= lanes
        comparisons = sum(length.bit_length() + 1 for length in probes) + 2 * n
        assert comparisons < 50 * n
