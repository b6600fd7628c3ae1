"""racecheck — static happens-before classification of shared accesses.

The delay-set machinery (:mod:`repro.analysis.delayset`) knows which
accesses may conflict across threads, and the lockset dataflow
(:mod:`repro.analysis.sync`) knows which locks each access provably
holds.  Put together they answer the question a translator user actually
asks: *which of my memory accesses are data races?*  Every shared-memory
access in the module is classified as one of:

* ``thread-local`` — the access never conflicts with another thread:
  the escape analysis proved the address unshared, the access is
  unreachable from any thread root, or no conflicting access exists;
* ``atomic`` — the access itself carries sc ordering (an sc load/store
  or an atomic RMW/cmpxchg): ordered by LIMM ord3/ord4 natively;
* ``lock-protected(L)`` — every conflicting access shares at least one
  must-held lock with this one, so the lock's sc RMW chain serialises
  every observation (the same fact the sync refinement exploits);
* ``racy`` — some conflicting pair is unordered by both: the program
  has a (potential) data race, and the Fig. 8a fences around this
  access are load-bearing.

The classification is *static and conservative in the race direction*:
locksets only shrink under approximation and conflict edges only grow,
so an access reported ``lock-protected`` really is protected, while a
``racy`` report may be a false positive (e.g. a mutex the lockset
analysis could not name).  When the conflict-graph construction caps out
(too many threads or nodes) nothing is classified racy — the report says
so instead of guessing.

Diagnostics carry the same provenance as fencecheck: the originating x86
instruction (``function @ 0x...``) whenever it survived to the analyzed
module, telemetry remarks per racy access, and SARIF ``racecheck/*``
results via :mod:`repro.analysis.sarif`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .. import telemetry
from ..lir import (
    AtomicRMW,
    CmpXchg,
    Load,
    Module,
    Store,
    format_instruction,
)
from ..provenance.origin import format_origins
from .delayset import graph_from_module
from .summaries import ModuleAnalysis, analyze_module
from .sync import compute_locksets

#: classification labels, in decreasing severity
CLASSIFICATIONS = ("racy", "lock-protected", "atomic", "thread-local")


@dataclass(frozen=True)
class RaceDiag:
    """One classified shared access, locatable in the printed IR."""

    function: str
    block: str
    index: int
    classification: str   # one of CLASSIFICATIONS
    message: str
    instruction: str      # formatted instruction text
    locks: tuple = ()     # lock names protecting the access (lock-protected)
    x86: str = ""         # originating x86 instruction(s), when provenance
                          # survived to the analyzed module

    @property
    def location(self) -> str:
        """The x86 source location when known, else the LIR position."""
        if self.x86:
            return f"{self.function} @ {self.x86}"
        return f"{self.function}:{self.block}:{self.index}"

    @property
    def lir_location(self) -> str:
        return f"{self.function}:{self.block}:{self.index}"

    def __str__(self) -> str:
        return f"{self.location}: {self.classification}: {self.message}"

    def to_dict(self) -> dict:
        return {
            "function": self.function,
            "block": self.block,
            "index": self.index,
            "classification": self.classification,
            "message": self.message,
            "instruction": self.instruction,
            "locks": list(self.locks),
            "x86": self.x86,
        }


@dataclass
class RaceReport:
    """Whole-module classification with per-category counts."""

    diags: list[RaceDiag] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    threads: list[str] = field(default_factory=list)
    #: conflict-graph construction capped out: nothing was classified
    #: racy because nothing could be soundly classified at all
    capped: bool = False
    locks_seen: tuple = ()

    @property
    def racy(self) -> list[RaceDiag]:
        return [d for d in self.diags if d.classification == "racy"]

    @property
    def protected(self) -> list[RaceDiag]:
        return [d for d in self.diags if d.classification == "lock-protected"]

    def count(self, classification: str) -> int:
        return self.counts.get(classification, 0)


def _lock_names(keys: frozenset) -> tuple:
    """Human-readable lock names from ``("lock", global, offset)`` keys."""
    names = []
    for key in sorted(keys):
        name = str(key[1])
        if len(key) > 2 and key[2]:
            name += f"+{key[2]}"
        names.append(name)
    return tuple(names)


def classify_module(module: Module,
                    ma: Optional[ModuleAnalysis] = None) -> RaceReport:
    """Classify every shared access in ``module``; returns the report.

    Pass a pre-built :class:`~repro.analysis.summaries.ModuleAnalysis` to
    share the call graph and alias work with the rest of the pipeline.
    """
    ma = ma or analyze_module(module)
    locksets = compute_locksets(module, ma)
    locks_at = locksets.at_instruction
    # Base (unrefined) graph: the sync refinement would drop exactly the
    # conflict edges this classifier needs to *see* to call an access
    # lock-protected rather than thread-local.
    graph, thread_names = graph_from_module(module, ma)

    report = RaceReport(threads=thread_names, capped=graph.capped,
                        locks_seen=_lock_names(
                            frozenset(locksets.locks_seen)))
    counts = {c: 0 for c in CLASSIFICATIONS}

    # Group graph nodes by underlying instruction: a worker spawned twice
    # contributes two thread copies of each access, but the user cares
    # about the instruction, not the copy.
    by_inst: dict[int, list] = {}
    for node in graph.accesses.values():
        by_inst.setdefault(id(node.inst), []).append(node)

    def classify_nodes(nodes) -> tuple[str, frozenset]:
        """(classification, common locks) for one instruction's copies."""
        inst = nodes[0].inst
        conflicts = set()
        for n in nodes:
            for other_uid in graph.conflicts.get(n.uid, ()):
                conflicts.add(graph.accesses[other_uid])
        if not conflicts:
            return "thread-local", frozenset()
        if any(n.ordering == "sc" for n in nodes) or isinstance(
                inst, (AtomicRMW, CmpXchg)):
            return "atomic", frozenset()
        my_locks = locks_at.get(id(inst), frozenset())
        if not my_locks:
            return "racy", frozenset()
        common: Optional[frozenset] = None
        for other in conflicts:
            # Conservative even against atomics: an sc access on the
            # other side orders itself, not this na access's observers.
            shared = my_locks & locks_at.get(id(other.inst), frozenset())
            if not shared:
                return "racy", frozenset()
            common = shared if common is None else (common & shared)
        assert common is not None  # conflicts is non-empty here
        if not common:
            # Each pair shares *a* lock but no single lock covers all
            # conflicts; still protected pairwise.
            common = my_locks
        return "lock-protected", common

    def diag(func: str, block: str, index: int, inst,
             classification: str, message: str, locks: frozenset) -> None:
        report.diags.append(RaceDiag(
            function=func, block=block, index=index,
            classification=classification, message=message,
            instruction=format_instruction(inst).strip(),
            locks=_lock_names(locks),
            x86=format_origins(inst.origins) if inst.origins else ""))

    graph_insts = set(by_inst)
    for inst_id, nodes in sorted(
            by_inst.items(),
            key=lambda kv: (kv[1][0].func, kv[1][0].block, kv[1][0].index)):
        first = nodes[0]
        classification, locks = classify_nodes(nodes)
        if report.capped and classification == "racy":
            # A capped graph has incomplete conflict edges in *both*
            # directions; refuse to point fingers.
            classification = "thread-local"
        counts[classification] += 1
        if classification == "racy":
            diag(first.func, first.block, first.index, first.inst,
                 "racy",
                 "conflicting access in another thread with no common "
                 "lock and no atomic ordering", locks)
        elif classification == "lock-protected":
            names = ", ".join(_lock_names(locks)) or "?"
            diag(first.func, first.block, first.index, first.inst,
                 "lock-protected",
                 f"every conflicting access shares lock(s) {names}",
                 locks)

    # Accesses never in the graph at all: proven thread-local by escape
    # analysis, or unreachable from any thread root.
    for func in module.functions.values():
        if func.is_declaration:
            continue
        for bb in func.blocks:
            for inst in bb.instructions:
                if isinstance(inst, (Load, Store, AtomicRMW, CmpXchg)) \
                        and id(inst) not in graph_insts:
                    counts["thread-local"] += 1

    report.counts = counts
    if report.capped:
        telemetry.remark(
            "racecheck", "capped",
            "conflict-graph construction capped out "
            f"({len(thread_names)} thread roots); no access was "
            "classified racy because none could be classified soundly")
    if telemetry.remarks_enabled():
        for d in report.racy:
            telemetry.remark(
                "racecheck", "racy", d.message,
                function=d.function, block=d.block, instruction=d.index,
                x86=d.x86)
    return report
