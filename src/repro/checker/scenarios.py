"""Declarative fault scenarios compiled onto the loss-process interface.

A :class:`FaultScenario` lists *what goes wrong* on the protected link
in protocol terms rather than wire-frame indices:

* ``drops`` — targeted drops by packet class and occurrence: the k-th
  original data packet (``data``), retransmitted copy (``retx``),
  dummy packet (``dummy``), loss notification (``notif``), pause /
  resume / explicit-ACK control frame — the §5 "what if the control
  packets themselves are corrupted" cases that example-based tests
  never reached;
* ``flaps`` — windows of total loss by wire-frame index (a link flap
  kills every frame regardless of class);
* ``ge`` — background Gilbert–Elliott corruption under the targeted
  drops (the paper's bursty-loss regime, Figure 20);
* ``nb_switch_ns`` — an ordered → LinkGuardianNB fallback mid-stream.

:func:`compile_forward` / :func:`compile_reverse` lower a scenario into
:class:`CompiledLoss` processes (one per link direction) that speak the
standard :class:`~repro.phy.loss.LossProcess` protocol, and
:func:`run_scenario` drives the whole thing through a self-contained
two-switch testbed under an
:class:`~repro.checker.invariants.InvariantChecker`.

``DEFECTS`` holds deliberate protocol breaks (era-comparison disabled,
resume swallowed, …) used to prove the checker actually catches
non-conformance; each returns a restore callable so a defect never
leaks outside its run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..core.engine import Simulator
from ..core.rng import RngFactory
from ..linkguardian.config import LinkGuardianConfig
from ..linkguardian.protocol import ProtectedLink
from ..obs import Observability
from ..packets.packet import LG_HEADER_BYTES, Packet, PacketKind
from ..phy.loss import GilbertElliottLoss, LossProcess
from ..switchsim.switch import Switch
from ..units import MTU_FRAME, US, gbps, serialization_ns
from .invariants import InvariantChecker, Violation

__all__ = [
    "DROP_KINDS", "FaultScenario", "CheckConfig", "CheckOutcome",
    "CompiledLoss", "compile_forward", "compile_reverse",
    "run_scenario", "DEFECTS",
]

#: drop-target classes and the link direction each travels on
DROP_KINDS = {
    "data": "forward",      # original protected data packets
    "retx": "forward",      # retransmitted copies
    "dummy": "forward",     # tail-loss-detection dummies (§3.2)
    "notif": "reverse",     # loss notifications
    "pause": "reverse",     # backpressure pause (Algorithm 2)
    "resume": "reverse",    # backpressure resume
    "ack": "reverse",       # explicit ACK packets (§3.1)
}

_KIND_OF_PACKET = {
    PacketKind.LG_RETX: "retx",
    PacketKind.LG_DUMMY: "dummy",
    PacketKind.LG_LOSS_NOTIF: "notif",
    PacketKind.LG_PAUSE: "pause",
    PacketKind.LG_RESUME: "resume",
    PacketKind.LG_ACK: "ack",
}


def _classify(packet) -> Optional[str]:
    """Map a wire frame to its drop-target class (None = untargetable)."""
    if packet is None:
        return None
    if packet.kind is PacketKind.DATA:
        if packet.lg is not None and not packet.lg.is_retx:
            return "data"
        return None  # unprotected passthrough traffic
    return _KIND_OF_PACKET.get(packet.kind)


@dataclass
class FaultScenario:
    """One declarative fault schedule for a protected link."""

    name: str = "scenario"
    #: targeted drops: ``{"kind": <DROP_KINDS>, "index": k}`` corrupts the
    #: k-th (0-based) occurrence of that packet class on its direction
    drops: List[Dict] = field(default_factory=list)
    #: total-loss windows: ``{"at_frame": f, "frames": n}`` by wire index
    flaps: List[Dict] = field(default_factory=list)
    #: background bursty corruption: ``{"rate": p, "mean_burst": b}``
    ge: Optional[Dict] = None
    #: ordered -> LinkGuardianNB fallback at this simulation time
    nb_switch_ns: Optional[int] = None

    def __post_init__(self) -> None:
        seen = set()
        for drop in self.drops:
            kind, index = drop["kind"], drop["index"]
            if kind not in DROP_KINDS:
                raise ValueError(
                    f"unknown drop kind {kind!r}; known: {sorted(DROP_KINDS)}"
                )
            if index < 0:
                raise ValueError(f"drop index must be >= 0, got {index}")
            if (kind, index) in seen:
                raise ValueError(f"duplicate drop ({kind}, {index})")
            seen.add((kind, index))

    def drop_atoms(self) -> List[Tuple[str, int]]:
        """The drop schedule as sortable atoms (the ddmin search space)."""
        return sorted((d["kind"], d["index"]) for d in self.drops)

    def with_drops(self, atoms: List[Tuple[str, int]]) -> "FaultScenario":
        """A copy of this scenario with the drop schedule replaced."""
        return FaultScenario(
            name=self.name,
            drops=[{"kind": k, "index": i} for k, i in sorted(atoms)],
            flaps=[dict(f) for f in self.flaps],
            ge=dict(self.ge) if self.ge else None,
            nb_switch_ns=self.nb_switch_ns,
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "drops": [
                {"kind": k, "index": i} for k, i in self.drop_atoms()
            ],
            "flaps": [dict(f) for f in self.flaps],
            "ge": dict(self.ge) if self.ge else None,
            "nb_switch_ns": self.nb_switch_ns,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultScenario":
        return cls(
            name=data.get("name", "scenario"),
            drops=[dict(d) for d in data.get("drops", [])],
            flaps=[dict(f) for f in data.get("flaps", [])],
            ge=dict(data["ge"]) if data.get("ge") else None,
            nb_switch_ns=data.get("nb_switch_ns"),
        )


@dataclass
class CheckConfig:
    """Everything besides the fault schedule that defines one check run."""

    n_packets: int = 300
    rate_gbps: float = 100.0
    #: starting seqNo — place it near ``SEQ_RANGE`` to cross the era wrap
    seq_start: int = 0
    ordered: bool = True
    backpressure: bool = True
    control_copies: int = 1
    #: loss rate handed to ``ProtectedLink.activate`` — sets N via Eq. 2
    loss_rate_hint: float = 1e-3
    seed: int = 1
    #: deliberate protocol break from ``DEFECTS`` (None = conformant code)
    defect: Optional[str] = None
    #: extra ``LinkGuardianConfig.for_link_speed`` overrides
    lg: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "n_packets": self.n_packets,
            "rate_gbps": self.rate_gbps,
            "seq_start": self.seq_start,
            "ordered": self.ordered,
            "backpressure": self.backpressure,
            "control_copies": self.control_copies,
            "loss_rate_hint": self.loss_rate_hint,
            "seed": self.seed,
            "defect": self.defect,
            "lg": dict(self.lg),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CheckConfig":
        return cls(**data)


@dataclass
class CheckOutcome:
    """What one scenario run produced."""

    violations: List[Violation]
    #: total breaches per invariant (uncapped, unlike ``violations``)
    counts: Dict[str, int]
    stats: dict
    n_copies: int
    completed: bool

    @property
    def ok(self) -> bool:
        return not self.counts


class CompiledLoss(LossProcess):
    """A fault scenario lowered onto one link direction.

    Every frame advances the wire-frame counter and its class counter;
    a frame is corrupted when its class occurrence is scheduled, when it
    falls inside a flap window, or when the background Gilbert–Elliott
    process (advanced once per frame for determinism) says so.
    """

    def __init__(
        self,
        drops: Dict[str, frozenset],
        flaps: List[Tuple[int, int]] = (),
        ge: Optional[GilbertElliottLoss] = None,
    ) -> None:
        self._drops = drops
        self._flaps = list(flaps)
        self._ge = ge
        self._counts: Dict[str, int] = {}
        self._frame = -1
        self.rate = ge.rate if ge is not None else 0.0

    def corrupts(self, packet=None) -> bool:
        self._frame += 1
        background = self._ge is not None and self._ge.corrupts(packet)
        hit = False
        kind = _classify(packet)
        if kind is not None:
            occurrence = self._counts.get(kind, 0)
            self._counts[kind] = occurrence + 1
            hit = occurrence in self._drops.get(kind, ())
        flapped = any(lo <= self._frame < hi for lo, hi in self._flaps)
        return hit or flapped or background


def _direction_drops(scenario: FaultScenario, direction: str) -> Dict[str, frozenset]:
    out: Dict[str, set] = {}
    for drop in scenario.drops:
        if DROP_KINDS[drop["kind"]] == direction:
            out.setdefault(drop["kind"], set()).add(drop["index"])
    return {kind: frozenset(indices) for kind, indices in out.items()}


def compile_forward(scenario: FaultScenario, rng: RngFactory) -> CompiledLoss:
    ge = None
    if scenario.ge is not None:
        ge = GilbertElliottLoss(
            scenario.ge["rate"], scenario.ge.get("mean_burst", 1.35),
            rng.stream("checker.ge"),
        )
    flaps = [
        (f["at_frame"], f["at_frame"] + f["frames"]) for f in scenario.flaps
    ]
    return CompiledLoss(_direction_drops(scenario, "forward"), flaps, ge)


def compile_reverse(scenario: FaultScenario) -> CompiledLoss:
    return CompiledLoss(_direction_drops(scenario, "reverse"))


# -- deliberate protocol breaks ------------------------------------------------


def _break_era_bit(plink: ProtectedLink) -> Callable[[], None]:
    """Disable the era bit in the receiver's seqNo comparisons (§3.5).

    Without era correction, a drop that spans the 16-bit wrap leaves the
    receive frontier stuck at the old-era value: every new-era packet
    compares as ancient and is discarded as a duplicate — exactly the
    failure mode the era bit exists to prevent.
    """
    from ..linkguardian import receiver as receiver_module

    original_compare = receiver_module.seq_compare
    original_distance = receiver_module.seq_distance
    receiver_module.seq_compare = (
        lambda a, ea, b, eb: original_compare(a, 0, b, 0))
    receiver_module.seq_distance = (
        lambda a, ea, b, eb: original_distance(a, 0, b, 0))

    def restore() -> None:
        receiver_module.seq_compare = original_compare
        receiver_module.seq_distance = original_distance
    return restore


def _swallow_control(plink: ProtectedLink, kind: PacketKind) -> Callable[[], None]:
    receiver = plink.receiver
    original = receiver._send_control

    def send_control(packet: Packet) -> None:
        if packet.kind is not kind:
            original(packet)

    receiver._send_control = send_control

    def restore() -> None:
        receiver._send_control = original
    return restore


def _break_resume(plink: ProtectedLink) -> Callable[[], None]:
    """Never send resume: a pause becomes a permanent deadlock (§3.3)."""
    return _swallow_control(plink, PacketKind.LG_RESUME)


def _break_pause(plink: ProtectedLink) -> Callable[[], None]:
    """Never send pause: the reordering buffer grows unbounded (Fig 9b)."""
    return _swallow_control(plink, PacketKind.LG_PAUSE)


def _break_dedup(plink: ProtectedLink) -> Callable[[], None]:
    """NB-mode de-duplication disabled: every retx copy is delivered."""
    receiver = plink.receiver
    original = receiver._claim_retx
    receiver._claim_retx = lambda key: True

    def restore() -> None:
        receiver._claim_retx = original
    return restore


def _break_copies(plink: ProtectedLink) -> Callable[[], None]:
    """Retransmit one copy more than Eq. 2 provisioned."""
    plink.sender.n_copies += 1

    def restore() -> None:
        plink.sender.n_copies -= 1
    return restore


#: name -> apply(plink) returning a restore callable
DEFECTS: Dict[str, Callable[[ProtectedLink], Callable[[], None]]] = {
    "era_bit": _break_era_bit,
    "no_resume": _break_resume,
    "no_pause": _break_pause,
    "no_dedup": _break_dedup,
    "wrong_copies": _break_copies,
}


# -- the scenario harness -------------------------------------------------------


def run_scenario(
    scenario: FaultScenario,
    config: Optional[CheckConfig] = None,
    obs: Optional[Observability] = None,
) -> CheckOutcome:
    """Run one fault scenario under the invariant checker.

    Builds the standard two-switch testbed (sw2 → sw6 over the protected
    link), seeds both endpoints at ``config.seq_start``, injects
    ``config.n_packets`` MTU frames at line rate, and runs the simulator
    until the protocol quiesces (or a watchdog deadline fires — which is
    itself evidence for the liveness checks in ``finalize``).
    """
    config = config if config is not None else CheckConfig()
    if config.defect is not None and config.defect not in DEFECTS:
        raise ValueError(
            f"unknown defect {config.defect!r}; known: {sorted(DEFECTS)}"
        )
    obs = obs if obs is not None else Observability()
    sim = Simulator(obs=obs)
    rng = RngFactory(config.seed)

    lg_kwargs: Dict[str, object] = dict(
        ordered=config.ordered,
        backpressure=config.backpressure,
        control_copies=config.control_copies,
    )
    lg_kwargs.update(config.lg)
    lg_config = LinkGuardianConfig.for_link_speed(config.rate_gbps, **lg_kwargs)

    plink = ProtectedLink(
        sim, Switch(sim, "sw2"), Switch(sim, "sw6"),
        rate_bps=gbps(config.rate_gbps),
        config=lg_config,
        loss=compile_forward(scenario, rng),
        reverse_loss=compile_reverse(scenario),
        phase_rng=rng.stream("recirc-phase"),
        obs=obs,
    )
    plink.sender.seed_sequence(config.seq_start)
    plink.receiver.seed_sequence(config.seq_start)
    n_copies = plink.activate(config.loss_rate_hint)

    checker = InvariantChecker(plink, obs, expected_copies=n_copies)
    restore = (
        DEFECTS[config.defect](plink) if config.defect is not None
        else (lambda: None)
    )
    try:
        gap_ns = serialization_ns(MTU_FRAME + LG_HEADER_BYTES, plink.rate_bps)
        for index in range(config.n_packets):
            packet = Packet(
                size=MTU_FRAME, dst="sink", flow_id=index,
                meta={"chk_index": index},
            )
            sim.schedule_at(index * gap_ns, checker.inject, packet)
        if scenario.nb_switch_ns is not None:
            sim.schedule_at(
                int(scenario.nb_switch_ns),
                plink.receiver.switch_to_non_blocking,
            )
        inject_span = config.n_packets * gap_ns
        settle_ns = inject_span + 3 * lg_config.ack_no_timeout_ns
        deadline_ns = settle_ns + 40 * lg_config.ack_no_timeout_ns + 500 * US

        def is_done() -> bool:
            return checker.quiescent(settle_ns)

        sim.run(until=sim.now + deadline_ns, stop=is_done)
        completed = is_done()
    finally:
        restore()
    violations = checker.finalize()
    stats = {
        "sender": plink.sender.stats.snapshot(),
        "receiver": plink.receiver.stats.snapshot(),
        "delivered_unique": len(checker.delivered),
        "injected": len(checker.injected),
        "control_drops": checker.control_drops,
        "max_buffer_bytes": checker.max_buffer_bytes,
    }
    return CheckOutcome(
        violations=violations,
        counts=dict(checker.counts),
        stats=stats,
        n_copies=n_copies,
        completed=completed,
    )
