"""``repro explain``: answer "which x86 access does this Arm dmb protect?".

Builds a program under a remark-collecting telemetry session, assembles
the LIR→Arm source map, and produces three views:

* **fences** — per emitted ``dmb``: the protected x86 access(es), the
  Fig. 8a placing rule, and every placement/merge decision that touched
  it (from the fence's decision log plus correlated remarks), followed
  by the accesses whose fences were *elided* and why;
* **map** — side-by-side annotated x86 / LIR / Arm disassembly, keyed by
  x86 address;
* **coverage** — the fraction of Arm instructions, memory accesses and
  fences with resolvable provenance (also recorded as telemetry gauges).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import telemetry
from ..arm.isa import fence_kind
from .origin import Origin, format_origins
from .sourcemap import CoverageReport, SourceMap, SourceMapEntry

#: Arm fence mnemonic → the LIMM fence it encodes (Fig. 8b).
_ARM_FENCE_NAMES = {"ff": "Fsc", "ld": "Frm", "st": "Fww"}


@dataclass
class FenceBlame:
    """Everything known about one emitted Arm fence."""

    function: str
    index: int
    arm: str                       # e.g. "dmb ishst"
    limm: str                      # Fsc / Frm / Fww
    origins: tuple[Origin, ...]
    events: tuple[str, ...]        # placement/merge decision log
    remarks: list = field(default_factory=list)

    @property
    def resolved(self) -> bool:
        return bool(self.origins)

    def rule(self) -> str:
        """The Fig. 8a mapping rule that produced this fence."""
        for event in self.events:
            if event.startswith("placed:"):
                return event[len("placed:"):].strip()
        # No placement log: the fence came straight out of the lifter
        # (mfence → Fsc) or is the implicit ordering of an sc RMW.
        mnems = {o.mnemonic for o in self.origins}
        if "mfence" in mnems:
            return "lifted mfence -> Fsc (Fig. 8a)"
        if any(m.startswith("lock") or m in ("xadd", "xchg", "cmpxchg")
               for m in mnems):
            return "rmw -> RMWsc (Fig. 8a)"
        if self.arm == "dmb ish" and any(not o.is_synthetic
                                         for o in self.origins):
            return "sc ordering of an atomic access"
        return "unknown (no placement record)"

    def to_dict(self) -> dict:
        return {
            "function": self.function,
            "index": self.index,
            "arm": self.arm,
            "limm": self.limm,
            "rule": self.rule(),
            "origins": [o.to_dict() for o in self.origins],
            "events": list(self.events),
            "remarks": [r.format() for r in self.remarks],
        }


@dataclass
class Explanation:
    config: str
    source_map: SourceMap
    coverage: CoverageReport
    fences: list[FenceBlame]
    elisions: list = field(default_factory=list)   # fence-skipped remarks
    x86_listing: dict[str, list] = field(default_factory=dict)
    module = None


def _addrs(origins) -> set[str]:
    return {f"0x{o.addr:x}" for o in origins}


def _correlate(blame: FenceBlame, remarks) -> list:
    """Remarks whose recorded origin addresses intersect the fence's."""
    mine = _addrs(blame.origins)
    hits = []
    for r in remarks:
        if r.kind not in ("fence-inserted", "fence-merged"):
            continue
        theirs = set(r.args.get("origins", ()))
        if theirs and (theirs & mine) and r.function == blame.function:
            hits.append(r)
    return hits


def build_explanation(source: str, config: str = "ppopt",
                      entry: str = "main",
                      verify: bool = True, obj=None) -> Explanation:
    """Translate ``source`` and assemble the full provenance explanation.

    Pass ``obj`` (an already-ingested :class:`X86Object`, e.g. from the
    ELF loader) to skip the mini-C front end; ``source`` is ignored then.
    """
    from ..core import Lasagne
    from ..lifter.disassembler import disassemble_all
    from ..minicc import compile_to_x86

    with telemetry.session() as tel:
        lasagne = Lasagne(verify=verify)
        x86_listing: dict[str, list] = {}
        if config == "native":
            if obj is not None:
                raise ValueError("the native configuration recompiles "
                                 "source and cannot explain a binary")
            built = lasagne.native(source, entry)
        else:
            if obj is None:
                obj = compile_to_x86(source, entry)
            x86_listing = disassemble_all(obj)
            built = lasagne.translate(obj, config, entry)
        source_map = SourceMap.from_program(built.program)
        coverage = source_map.coverage()
        remarks = list(tel.remarks.remarks) if tel.remarks else []

    fences: list[FenceBlame] = []
    for entry_ in source_map.fences():
        kind = fence_kind(entry_.instr) or "ff"
        blame = FenceBlame(
            function=entry_.function,
            index=entry_.index,
            arm=str(entry_.instr).strip(),
            limm=_ARM_FENCE_NAMES.get(kind, kind),
            origins=entry_.origins,
            events=tuple(getattr(entry_.instr, "placement", ())),
        )
        blame.remarks = _correlate(blame, remarks)
        fences.append(blame)

    elisions = [r for r in remarks
                if r.origin == "place-fences" and r.kind == "fence-skipped"]
    expl = Explanation(
        config=config,
        source_map=source_map,
        coverage=coverage,
        fences=fences,
        elisions=elisions,
        x86_listing=x86_listing,
    )
    expl.module = built.module
    return expl


# ---- rendering ---------------------------------------------------------


def render_fences(expl: Explanation) -> str:
    lines = [f"== fence blame ({expl.config}) =="]
    if not expl.fences:
        lines.append("  (no fences emitted)")
    for blame in expl.fences:
        lines.append(f"{blame.function}[{blame.index}]: {blame.arm}  "
                     f"({blame.limm})")
        lines.append(f"  protects: {format_origins(blame.origins)}")
        lines.append(f"  rule: {blame.rule()}")
        decisions = list(blame.events)
        if decisions:
            lines.append("  decisions:")
            for event in decisions:
                lines.append(f"    - {event}")
        for r in blame.remarks:
            lines.append(f"  remark: [{r.origin}:{r.kind}] {r.message}")
    if expl.elisions:
        lines.append("")
        lines.append(f"== elided fences ({len(expl.elisions)} accesses "
                     "proven thread-local) ==")
        for r in expl.elisions:
            where = r.args.get("x86", "") or "<no x86 origin>"
            what = r.instruction or ""
            lines.append(f"  {r.function}: {what} @ {where}: {r.message}")
    return "\n".join(lines)


def render_map(expl: Explanation) -> str:
    """Side-by-side x86 / LIR / Arm listing, keyed by x86 address."""
    from ..lir import format_instruction

    lines = [f"== provenance map ({expl.config}) =="]
    if not expl.x86_listing:
        lines.append("  (no x86 input: native config has no lineage)")
        return "\n".join(lines)

    # Index the *final* LIR and the Arm stream by x86 address.
    lir_by_addr: dict[int, list[str]] = {}
    if expl.module is not None:
        for func in expl.module.functions.values():
            for bb in func.blocks:
                for inst in bb.instructions:
                    for o in inst.origins:
                        if not o.is_synthetic:
                            lir_by_addr.setdefault(o.addr, []).append(
                                format_instruction(inst).strip())
    arm_by_addr: dict[int, list[SourceMapEntry]] = {}
    for e in expl.source_map.entries:
        for o in e.origins:
            if not o.is_synthetic:
                arm_by_addr.setdefault(o.addr, []).append(e)

    for fname, instrs in expl.x86_listing.items():
        lines.append(f"\n-- {fname} --")
        for instr in instrs:
            lines.append(f"0x{instr.address:x}: {instr}")
            for text in dict.fromkeys(lir_by_addr.get(instr.address, ())):
                lines.append(f"    lir | {text}")
            seen: set[int] = set()
            for e in arm_by_addr.get(instr.address, ()):
                if id(e) in seen:
                    continue
                seen.add(id(e))
                lines.append(f"    arm | {e.instr}")
    synthetic = [e for e in expl.source_map.entries
                 if e.origins and all(o.is_synthetic for o in e.origins)]
    if synthetic:
        lines.append("\n-- synthetic (anchored at function entries) --")
        for e in synthetic:
            anchor = format_origins(e.origins)
            lines.append(f"    arm | {e.instr}  [{anchor}]")
    return "\n".join(lines)


def render_coverage(expl: Explanation) -> str:
    cov = expl.coverage
    lines = [f"== provenance coverage ({expl.config}) =="]
    lines.append(f"  arm instructions: {cov.resolved}/{cov.total} "
                 f"({cov.instruction_pct:.1f}%) resolve to an x86 origin")
    lines.append(f"  memory accesses:  {cov.mem_resolved}/{cov.mem_total} "
                 f"({cov.memory_pct:.1f}%)")
    lines.append(f"  fences:           {cov.fence_resolved}/{cov.fence_total} "
                 f"({cov.fence_pct:.1f}%)")
    unresolved = expl.source_map.unresolved()
    if unresolved:
        lines.append(f"  unresolved ({len(unresolved)}):")
        for e in unresolved[:10]:
            lines.append(f"    {e.function}[{e.index}]: {e.instr}")
        if len(unresolved) > 10:
            lines.append(f"    ... {len(unresolved) - 10} more")
    return "\n".join(lines)


def explanation_to_dict(expl: Explanation) -> dict:
    return {
        "config": expl.config,
        "coverage": expl.coverage.to_dict(),
        "fences": [b.to_dict() for b in expl.fences],
        "elisions": [r.to_dict() for r in expl.elisions],
    }
