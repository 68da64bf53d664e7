"""Global static allocation planning (§5.1, Figure 6 right).

The global planner receives the (possibly fused) HomoPhase local plans,
groups them by size into HomoSize groups, and lays the groups out in
*descending* size order:

1. a plan of the current size is first slotted into the memory-layers created
   for larger sizes ("Requests Insertion" in Figure 6): into the tightest layer
   that holds nothing through the plan's window or, when every layer is busy
   at some point of it, into the tightest byte range of any layer that no
   occupant overlapping the window touches -- small plans that live together
   share an idle tall layer side by side;
2. whatever cannot be inserted builds new memory-layers via Algorithm 1;
3. finally every layer receives an absolute base address (layers are simply
   stacked) and each original request's address becomes
   ``layer.base + occupant offset + plan-relative offset``.

The output is a :class:`~repro.core.plan.StaticAllocationPlan` whose pool size
is the sum of the layer sizes.
"""

from __future__ import annotations

from repro.core.config import GlobalPlannerConfig
from repro.core.homophase import LocalPlan, Row
from repro.core.homosize import MemoryLayer, construct_memory_layers, group_by_size
from repro.core.plan import StaticAllocationPlan


def build_global_plan(
    plans: list[LocalPlan],
    config: GlobalPlannerConfig | None = None,
) -> tuple[StaticAllocationPlan, list[MemoryLayer]]:
    """Assign absolute addresses to every request of every local plan."""
    config = config or GlobalPlannerConfig()
    groups = group_by_size(plans)
    sizes = sorted(groups, reverse=config.descending_size_order)

    layers: list[MemoryLayer] = []
    for size in sizes:
        pending: list[LocalPlan] = []
        for plan in sorted(groups[size], key=lambda p: (p.start_time, p.end_time)):
            if config.enable_gap_insertion and _insert_into_existing_layer(plan, layers):
                continue
            pending.append(plan)
        layers.extend(construct_memory_layers(pending, size))

    base = 0
    rows: list[Row] = []
    addresses: list[int] = []
    for layer in layers:
        layer.base = base
        base += layer.size
        for item, item_base in zip(layer.items, layer.offsets):
            item_base += layer.base
            rows += item.rows
            addresses += [item_base + offset for offset in item.offsets]
    return StaticAllocationPlan.from_rows(rows, addresses, pool_size=base), layers


def _insert_into_existing_layer(plan: LocalPlan, layers: list[MemoryLayer]) -> bool:
    """Requests Insertion: the tightest idle window, else the tightest idle byte range."""
    for whole_height in (True, False):
        best: tuple[int, int] | None = None
        for layer in layers:
            found = layer.find_offset(plan, whole_height=whole_height)
            if found is not None and (best is None or found[0] < best[0]):
                best, target = found, layer
        if best is not None:
            target.place(plan, best[1])
            return True
    return False


def plan_reserved_bytes(layers: list[MemoryLayer]) -> int:
    """Total bytes the layered plan reserves (sum of layer sizes)."""
    return sum(layer.size for layer in layers)


def plan_summary(layers: list[MemoryLayer]) -> dict:
    """Small report used in synthesis_info and the ablation benchmarks."""
    occupants = [item for layer in layers for item in layer.items]
    horizon = max((item.end_time for item in occupants), default=0) - min(
        (item.start_time for item in occupants), default=0
    )
    return {
        "num_layers": len(layers),
        "reserved_bytes": plan_reserved_bytes(layers),
        "layer_sizes": [layer.size for layer in layers],
        "items_per_layer": [len(layer.items) for layer in layers],
        # Share of each layer's bytes x plan horizon that no occupant holds.
        "idle_share_per_layer": [round(layer.idle_share(horizon), 4) for layer in layers],
    }
