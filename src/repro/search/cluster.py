"""Cluster descriptions for the auto-parallelism search planner.

A :class:`ClusterSpec` names the hardware a searched job must fit on: the
device type (one of the testbed accelerators in
:data:`repro.gpu.specs.GPU_SPECS` -- the search needs both the memory budget
and the compute/bandwidth ceilings, so unknown devices are rejected), the
number of devices, and optionally a uniform capacity override or a
heterogeneous per-rank budget map.

The compact string form the CLI accepts is ``[<nodes>x]<N>x<DEVICE>[@<GiB>]``::

    8xA800-80GB          # 8 devices at the spec's 80 GiB
    8xA800-80GB@40       # same devices capped at 40 GiB each
    4xH200-141GB
    2x8xA800-80GB@40     # 2 nodes of 8 devices each (16 total), 40 GiB caps

The node-count form sets :attr:`ClusterSpec.num_nodes`; ``num_devices`` is
always the cluster *total*.  Multi-node clusters feed ``gpus_per_node`` (and,
via the JSON form's ``intra_node_gbytes_per_sec`` /
``inter_node_gbytes_per_sec`` fields, the tier bandwidths) into the timeline's
hierarchical fabric through :attr:`ClusterSpec.fabric`.

Budget maps (different budgets per rank) are only expressible through the
JSON/dict form: ``{"devices": "8xA800-80GB", "device_memory_by_rank":
{"0": 40, "1": 96}}``.  Budget-map keys address *logical* pipeline stages
(``"2"``) or ``pp.ep`` coordinates (``"2.1"``) -- the same addressing sweep
specs use.  Because the search varies the pipeline/expert degrees per
candidate, entries whose stage or coordinate does not exist under a
candidate's layout are simply ignored for that candidate (they address a
logical slot the candidate does not have), rather than invalidating the
candidate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.gpu.specs import get_gpu
from repro.simulator.ranks import validate_budget_map, validate_capacity_gib

#: ``8xA800-80GB`` / ``2x8xA800-80GB@40`` -- optional node count, per-node (or
#: total) device count, device name, optional GiB.  The gib group is a strict
#: decimal (one optional dot) so malformed capacities like ``@1.2.3`` fail the
#: match and get the documented "cannot parse cluster ..." message instead of
#: a bare float() error.
_CLUSTER_RE = re.compile(
    r"^(?:(?P<nodes>\d+)x)?(?P<count>\d+)x(?P<device>[^@]+?)"
    r"(?:@(?P<gib>\d+(?:\.\d+)?))?$"
)


@dataclass(frozen=True)
class ClusterSpec:
    """The hardware one search targets."""

    device_name: str
    num_devices: int
    #: Uniform per-device budget override in GiB (None = the device spec's).
    device_capacity_gib: float | None = None
    #: Heterogeneous per-rank budgets as sorted ``(rank label, GiB)`` pairs
    #: (hashable); empty means every rank gets the uniform budget.
    device_memory_by_rank: tuple[tuple[str, float], ...] = field(default=())
    #: Number of nodes the devices are spread over; ``num_devices`` stays the
    #: cluster total.  1 (the default) is the flat single-tier topology.
    num_nodes: int = 1
    #: Optional tier-bandwidth overrides (GB/s) applied onto the device spec
    #: when pricing timelines; ``None`` keeps the spec's flat a2a rate.
    intra_node_gbytes_per_sec: float | None = None
    inter_node_gbytes_per_sec: float | None = None

    def __post_init__(self) -> None:
        get_gpu(self.device_name)  # raises for unknown devices
        if not isinstance(self.num_devices, int) or isinstance(self.num_devices, bool) \
                or self.num_devices < 1:
            raise ValueError(f"num_devices must be a positive int, got {self.num_devices!r}")
        validate_capacity_gib(self.device_capacity_gib)
        if self.device_memory_by_rank:
            validate_budget_map(dict(self.device_memory_by_rank), "device_memory_by_rank")
        if not isinstance(self.num_nodes, int) or isinstance(self.num_nodes, bool) \
                or self.num_nodes < 1:
            raise ValueError(f"num_nodes must be a positive int, got {self.num_nodes!r}")
        if self.num_devices % self.num_nodes != 0:
            raise ValueError(
                f"num_devices ({self.num_devices}) must divide evenly into "
                f"num_nodes ({self.num_nodes})"
            )
        try:
            get_gpu(self.device_name, self.fabric)
        except ValueError as error:
            raise ValueError(f"cluster {error}") from None

    @property
    def gpus_per_node(self) -> int:
        """Devices per node; 0 for the degenerate single-node topology."""
        if self.num_nodes <= 1:
            return 0
        return self.num_devices // self.num_nodes

    @property
    def fabric(self) -> dict:
        """GPUSpec field overrides describing this cluster's network fabric.

        Empty for a flat single-node cluster with no bandwidth overrides --
        the form :meth:`repro.sweep.spec.SweepPoint.build` accepts as its
        ``fabric`` argument, and the payload a sweep's ``fabric`` axis sets.
        """
        overrides: dict = {}
        if self.num_nodes > 1:
            overrides["gpus_per_node"] = self.gpus_per_node
        if self.intra_node_gbytes_per_sec is not None:
            overrides["intra_node_gbytes_per_sec"] = self.intra_node_gbytes_per_sec
        if self.inter_node_gbytes_per_sec is not None:
            overrides["inter_node_gbytes_per_sec"] = self.inter_node_gbytes_per_sec
        return overrides

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def parse(cls, text: str) -> "ClusterSpec":
        """Parse the compact ``[<nodes>x]<N>x<DEVICE>[@<GiB>]`` cluster string."""
        match = _CLUSTER_RE.match(text.strip())
        if not match:
            raise ValueError(
                f"cannot parse cluster {text!r}; expected "
                f"'[<nodes>x]<N>x<DEVICE>[@<GiB>]' like '8xA800-80GB', "
                f"'8xA800-80GB@40' or '2x8xA800-80GB'"
            )
        capacity = match.group("gib")
        nodes = int(match.group("nodes")) if match.group("nodes") else 1
        if nodes < 1:
            raise ValueError(f"cluster {text!r}: num_nodes must be a positive int, got {nodes}")
        per_node = int(match.group("count"))
        return cls(
            device_name=match.group("device"),
            num_devices=nodes * per_node,
            device_capacity_gib=float(capacity) if capacity is not None else None,
            num_nodes=nodes,
        )

    @classmethod
    def from_dict(cls, data) -> "ClusterSpec":
        """Build from the JSON forms: a cluster string or a mapping.

        The mapping form accepts ``{"devices": "8xA800-80GB@40"}`` (the
        compact string under a key) plus an optional ``device_memory_by_rank``
        budget map, or the explicit fields ``device_name`` / ``num_devices`` /
        ``device_capacity_gib``.
        """
        if isinstance(data, ClusterSpec):
            return data
        if isinstance(data, str):
            return cls.parse(data)
        if not isinstance(data, dict):
            raise ValueError(f"cluster must be a string or mapping, got {data!r}")
        data = dict(data)
        budgets = data.pop("device_memory_by_rank", None)
        if budgets is None:
            budgets = {}
        validate_budget_map(budgets, "cluster device_memory_by_rank")
        intra = data.pop("intra_node_gbytes_per_sec", None)
        inter = data.pop("inter_node_gbytes_per_sec", None)
        if "devices" in data:
            devices = data.pop("devices")
            if not isinstance(devices, str):
                raise ValueError(
                    f"cluster devices must be a cluster string like '8xA800-80GB', got {devices!r}"
                )
            base = cls.parse(devices)
            if data:
                raise ValueError(
                    f"unknown cluster fields next to 'devices': {', '.join(sorted(data))}"
                )
            device_name = base.device_name
            num_devices = base.num_devices
            capacity = base.device_capacity_gib
            num_nodes = base.num_nodes
        else:
            unknown = set(data) - {
                "device_name", "num_devices", "device_capacity_gib", "num_nodes",
            }
            if unknown:
                raise ValueError(f"unknown cluster fields: {', '.join(sorted(unknown))}")
            device_name = data.get("device_name", "A800-80GB")
            num_devices = data.get("num_devices", 1)
            capacity = data.get("device_capacity_gib")
            num_nodes = data.get("num_nodes", 1)
        return cls(
            device_name=device_name,
            num_devices=num_devices,
            device_capacity_gib=capacity,
            device_memory_by_rank=tuple(
                sorted((str(key), float(value)) for key, value in budgets.items())
            ),
            num_nodes=num_nodes,
            intra_node_gbytes_per_sec=intra,
            inter_node_gbytes_per_sec=inter,
        )

