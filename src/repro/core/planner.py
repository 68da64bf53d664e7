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

That layered plan is the paper's, and it pins every plan of one size to one
offset.  Short tall plans that follow one another while ever more long-lived
small ones are alive (prefill forwards over a growing set of KV caches) want a
different offset each, so a second candidate is built from the same primitive:

4. one open layer into which every plan is placed longest lifetime first, each
   at the tightest byte range idle through its window -- the long-lived plans
   end up underneath.  It is abandoned the moment its top reaches the layered
   pool, and kept only when it ends strictly below it; a tie is the layered
   plan.  It is not considered when dynamic requests will be served from the
   plan's idle space (section 5.2: a tighter pool starves them into fallback
   ``device.malloc`` calls) or when either ablation switch is off.

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
    *,
    idle_space_reused: bool = False,
) -> tuple[StaticAllocationPlan, list[MemoryLayer], int]:
    """Assign absolute addresses to every request of every local plan.

    Returns the plan, the layers it was emitted from and the pool the layered
    (descending-size) plan reserves -- the pool of the plan itself unless the
    longest-lifetime-first candidate won.  ``idle_space_reused`` says dynamic
    groups will be served from the plan's idle space at runtime (section 5.2):
    the tighter candidate leaves them less, so it is not considered.
    """
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

    layered_pool = plan_reserved_bytes(layers)
    if config.descending_size_order and config.enable_gap_insertion and not idle_space_reused:
        open_layer = _longest_lived_first(plans, layered_pool)
        if open_layer is not None:
            layers = [open_layer]

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
    return StaticAllocationPlan.from_rows(rows, addresses, pool_size=base), layers, layered_pool


def _longest_lived_first(plans: list[LocalPlan], limit: int) -> MemoryLayer | None:
    """One open layer filled longest lifetime first, or None unless it ends below ``limit``.

    Each plan takes the tightest byte range idle through its window, so the
    long-lived plans end up underneath and the short ones on top of however
    many of them are alive by then.
    """
    layer = MemoryLayer(size=sum(plan.size for plan in plans))  # room for any placement
    order = sorted(
        (plan for plan in plans if plan.num_requests),
        key=lambda p: (p.start_time - p.end_time, -p.size, p.start_time),
    )
    top = 0
    for plan in order:
        _, offset = layer.find_offset(plan, whole_height=False)
        end = offset + plan.size
        if end >= limit:
            return None
        if end > top:
            top = end
        layer.place(plan, offset)
    layer.size = top
    return layer if order else None


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
