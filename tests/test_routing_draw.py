"""The MoE router's draw: a stdlib port that must stay bit-exact with numpy.

Every routed MoE trace, plan and row is a function of
:func:`repro.workloads.routing_draw.routed_counts`, so its output is a
contract.  Two layers pin it:

* ``tests/fixtures/golden_routing_draws.json`` holds ``route_global`` outputs
  recorded with the numpy-backed router this port replaced, for every MoE
  model's ``(num_experts, top_k)`` across seeds (one of them wider than 32
  bits), layers, micro-batches, token counts and imbalances, plus a sha256
  over a wider grid.  These tests run without numpy.
* When numpy is installed, a differential compares each ported piece with
  numpy's ``Generator``: the raw PCG64 stream, the ziggurat normal (its tail
  included), ``standard_gamma(2.0)``, ``binomial`` in both algorithm regimes
  on both sides of ``p = 0.5``, and whole draws.  The large sweeps are
  ``slow``.

A failure in either means MoE trace bytes changed: fix the port, never the
fixture.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from pathlib import Path

import pytest

from repro.workloads.models import MODEL_REGISTRY
from repro.workloads.moe import ExpertRouter
from repro.workloads.routing_draw import (
    ZIGGURAT_R,
    Generator,
    pairwise_sum,
    routed_counts,
    seed_state,
)

FIXTURE = json.loads(
    (Path(__file__).parent / "fixtures" / "golden_routing_draws.json").read_text(
        encoding="utf-8"
    )
)

MOE_SHAPES = sorted(
    {(model.num_experts, model.moe_top_k) for model in MODEL_REGISTRY.values() if model.is_moe}
)


def route(num_experts, top_k, seed, layer, microbatch, num_tokens, imbalance):
    router = ExpertRouter(num_experts, num_experts, top_k, seed=seed, imbalance=imbalance)
    return router.route_global(num_tokens, layer=layer, microbatch=microbatch)


# ---------------------------------------------------------------------- #
# Golden draws (no numpy)
# ---------------------------------------------------------------------- #
def test_fixture_covers_every_moe_model_shape():
    assert sorted({(case[0], case[1]) for case in FIXTURE["cases"]}) == MOE_SHAPES
    assert sorted(FIXTURE["grid_sha256"]) == sorted(f"{e}x{k}" for e, k in MOE_SHAPES)


@pytest.mark.parametrize("shape", MOE_SHAPES, ids=lambda shape: f"{shape[0]}x{shape[1]}")
def test_route_global_reproduces_the_recorded_draws(shape):
    mismatches = [
        case[:7]
        for case in FIXTURE["cases"]
        if tuple(case[:2]) == shape and route(*case[:7]) != case[7]
    ]
    assert mismatches == []


@pytest.mark.slow
@pytest.mark.parametrize("shape", MOE_SHAPES, ids=lambda shape: f"{shape[0]}x{shape[1]}")
def test_route_global_reproduces_the_recorded_grid_digest(shape):
    grid = FIXTURE["grid"]
    digest = hashlib.sha256()
    for seed, layer, microbatch, tokens, imbalance in itertools.product(
        grid["seeds"],
        range(grid["layers"]),
        range(grid["microbatches"]),
        grid["num_tokens"],
        grid["imbalances"],
    ):
        counts = route(*shape, seed, layer, microbatch, tokens, imbalance)
        digest.update(json.dumps(counts).encode() + b"\n")
    assert digest.hexdigest() == FIXTURE["grid_sha256"][f"{shape[0]}x{shape[1]}"]


def test_one_draw_per_layer_execution_is_shared_across_routers_and_ep_ranks():
    routed_counts.cache_clear()
    first = ExpertRouter(8, 2, 2, seed=5, imbalance=0.6, ep_rank=0)
    second = ExpertRouter(8, 2, 2, seed=5, imbalance=0.6, ep_rank=3)
    a = first.route_global(64, layer=2, microbatch=1)
    b = second.route_global(64, layer=2, microbatch=1)
    assert a == b and sum(a) == 128
    info = routed_counts.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    # The memo hands out copies: a caller mutating its list changes nothing.
    a[0] += 1
    assert first.route_global(64, layer=2, microbatch=1) == b


def test_tracegen_and_the_timeline_share_the_routed_draws():
    from repro.timeline.simulator import simulate_timeline
    from repro.workloads.models import get_model
    from repro.workloads.parallelism import ParallelismConfig
    from repro.workloads.tracegen import TraceGenerator
    from repro.workloads.training import TrainingConfig

    config = TrainingConfig(
        model=get_model("moe-tiny"),
        parallelism=ParallelismConfig(pipeline_parallel=2, data_parallel=2, expert_parallel=2),
        micro_batch_size=1,
        num_microbatches=2,
        moe_imbalance=0.6,
    )
    routed_counts.cache_clear()
    for rank in range(2):
        for ep_rank in range(2):
            TraceGenerator(config, seed=3, rank=rank, ep_rank=ep_rank).generate()
    drawn = routed_counts.cache_info().misses
    assert drawn == config.model.num_layers * config.num_microbatches
    simulate_timeline(config, seed=3)
    assert routed_counts.cache_info().misses == drawn


# ---------------------------------------------------------------------- #
# Seed hardening
# ---------------------------------------------------------------------- #
def _sweep_spec(**fields):
    from repro.sweep.spec import SweepSpec

    return SweepSpec.from_dict({"name": "seed", "allocators": ["torch2.3"], **fields})


def _search_spec(seed):
    from repro.search.space import SearchSpec

    return SearchSpec.from_dict(
        {
            "name": "seed",
            "model": "moe-tiny",
            "cluster": "4xA800-80GB",
            "global_batch": 8,
            "allocators": ["torch2.3"],
            "seed": seed,
        }
    )


@pytest.mark.parametrize("value", [-1, True, False, 1.5, "3", None])
@pytest.mark.parametrize(
    "build, field",
    [
        (lambda seed: _sweep_spec(seed=seed), "seed"),
        (lambda seed: _sweep_spec(grid={"seed": [0, seed]}), r"grid seed\[1\]"),
        (_search_spec, "seed"),
        (lambda seed: ExpertRouter(8, 8, 2, seed=seed, imbalance=0.0), "seed"),
    ],
    ids=["sweep", "sweep-grid", "search", "router"],
)
def test_a_bad_seed_is_a_one_line_error_naming_the_field(build, field, value):
    with pytest.raises(ValueError, match=rf"^{field} must be a non-negative int, got ") as error:
        build(value)
    assert "\n" not in str(error.value)


def test_a_negative_seed_fails_a_routed_sweep_before_it_runs(tmp_path, capsys):
    from repro.cli import main

    spec = {
        "name": "bad-seed",
        "model": "moe-tiny",
        "parallelism": {"pipeline_parallel": 2, "data_parallel": 2, "expert_parallel": 2},
        "base": {"num_microbatches": 2, "moe_imbalance": 0.6},
        "allocators": ["torch2.3"],
        "seed": -1,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["sweep", str(path), "--no-cache", "--no-progress"]) == 2
    assert capsys.readouterr().err == "error: seed must be a non-negative int, got -1\n"


# ---------------------------------------------------------------------- #
# numpy differential
# ---------------------------------------------------------------------- #
def _numpy_generator(entropy, spawn_key):
    np = pytest.importorskip("numpy")
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=entropy, spawn_key=spawn_key))
    )


def _numpy_route(num_experts, total, seed, layer, microbatch, imbalance):
    """The numpy draw ``ExpertRouter.route_global`` made before the port."""
    np = pytest.importorskip("numpy")
    rng = _numpy_generator(seed, (layer, microbatch))
    base = np.full(num_experts, 1.0 / num_experts)
    preference = rng.dirichlet(np.full(num_experts, 2.0))
    probabilities = (1.0 - imbalance) * base + imbalance * preference
    probabilities = probabilities / probabilities.sum()
    return [int(count) for count in rng.multinomial(total, probabilities)]


ENTROPIES = [(0, ()), (0, (0, 0)), (3, (5, 2)), (2**33 + 5, (23, 7)), (2**130 + 1, (2**40, 1))]


@pytest.mark.parametrize("count", [5, 8, 60, 127, 128, 129, 300])
def test_pairwise_sum_matches_numpy(count):
    np = pytest.importorskip("numpy")
    values = Generator(count).dirichlet(2.0, count)
    assert pairwise_sum(values) == float(np.asarray(values).sum())


@pytest.mark.parametrize("entropy, spawn_key", ENTROPIES)
def test_seed_state_and_raw_stream_match_numpy(entropy, spawn_key):
    np = pytest.importorskip("numpy")
    sequence = np.random.SeedSequence(entropy=entropy, spawn_key=spawn_key)
    assert seed_state(entropy, spawn_key) == tuple(
        int(word) for word in sequence.generate_state(4, np.uint64)
    )
    raw = np.random.PCG64(sequence).random_raw(2000)
    ours = Generator(entropy, spawn_key)
    assert [ours.random_raw() for _ in range(2000)] == [int(value) for value in raw]


def _compare_normals(count):
    reference = _numpy_generator(11, (1, 2)).standard_normal(count).tolist()
    ours = Generator(11, (1, 2))
    drawn = [ours.standard_normal() for _ in range(count)]
    assert drawn == reference
    return drawn


def test_standard_normal_matches_numpy():
    _compare_normals(20_000)


@pytest.mark.slow
def test_standard_normal_matches_numpy_over_a_million_draws_with_the_tail():
    drawn = _compare_normals(1_000_000)
    assert any(abs(x) > ZIGGURAT_R for x in drawn)  # the idx == 0 tail branch ran


@pytest.mark.parametrize("count", [10_000, pytest.param(100_000, marks=pytest.mark.slow)])
def test_standard_gamma_matches_numpy(count):
    reference = _numpy_generator(4, (0, 9))
    ours = Generator(4, (0, 9))
    assert [ours.standard_gamma(2.0) for _ in range(count)] == [
        reference.standard_gamma(2.0) for _ in range(count)
    ]


@pytest.mark.parametrize("size", [2, 8, 60, 130])
def test_dirichlet_matches_numpy(size):
    np = pytest.importorskip("numpy")
    reference = _numpy_generator(2, (size, 1))
    ours = Generator(2, (size, 1))
    for _ in range(50):
        assert ours.dirichlet(2.0, size) == reference.dirichlet(np.full(size, 2.0)).tolist()


BINOMIAL_CASES = [
    # inversion: n * min(p, 1 - p) <= 30
    (1, 0.3), (29, 0.5), (60, 0.5), (100, 0.05), (1000, 0.97), (10**6, 1e-5),
    # BTPE, the explicit f(y)/f(m) walk (|y - m| <= 20)
    (100, 0.4), (250, 0.6), (64, 0.49),
    # BTPE with |y - m| > 20: the squeeze and Stirling acceptance of Step 52
    # (reached by ~8% of draws at n = 1000)
    (1000, 0.4), (1000, 0.6), (16384, 0.3), (16384, 0.7), (10**6, 0.5), (10**6, 0.51),
    # edges
    (0, 0.3), (50, 0.0), (50, 1.0),
]


@pytest.mark.parametrize("n, p", BINOMIAL_CASES)
def test_binomial_matches_numpy_in_both_regimes(n, p):
    reference = _numpy_generator(7, (n % 1000, int(p * 100)))
    ours = Generator(7, (n % 1000, int(p * 100)))
    drawn = [ours.binomial(n, p) for _ in range(1000)]
    assert drawn == [int(reference.binomial(n, p)) for _ in range(1000)]
    r = min(p, 1.0 - p)
    if n * r * (1.0 - r) > 1000:
        # BTPE draws y on min(p, 1 - p); some draws must land > 20 from its mode.
        mode = math.floor(n * r + r)
        assert any(abs((y if p <= 0.5 else n - y) - mode) > 20 for y in drawn)


def _route_cases(experts, seeds, layers, tokens, imbalances):
    for num_experts, seed, layer, num_tokens, imbalance in itertools.product(
        experts, seeds, layers, tokens, imbalances
    ):
        total = num_tokens * 2
        counts = list(routed_counts(seed, layer, layer % 3, num_experts, total, imbalance))
        if counts != _numpy_route(num_experts, total, seed, layer, layer % 3, imbalance):
            yield (num_experts, seed, layer, num_tokens, imbalance)


def test_route_global_matches_numpy():
    pytest.importorskip("numpy")
    assert list(_route_cases((4, 8, 60, 130), (0, 3), (0, 5), (1, 100, 4096), (0.3, 1.0))) == []


@pytest.mark.slow
def test_route_global_matches_numpy_across_expert_counts():
    pytest.importorskip("numpy")
    experts = (4, 5, 8, 16, 31, 60, 64, 100, 128, 130)
    mismatches = list(
        _route_cases(experts, (0, 1, 3, 2**33), range(4), (1, 7, 33, 512, 4096), (0.05, 0.6, 1.0))
    )
    assert mismatches == []
