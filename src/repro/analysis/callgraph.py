"""Module call graph, SCC condensation, and thread-root discovery.

The interprocedural layers of the analysis package need three facts about
a :class:`~repro.lir.Module`:

* **who calls whom** — direct call edges between *defined* functions, so
  function summaries can be computed bottom-up (callees before callers);
* **which functions are mutually recursive** — Tarjan's strongly-connected
  components over those edges; calls inside an SCC are treated
  conservatively by the summary layer;
* **which functions can run as thread entry points** — for the delay-set
  conflict graph.  A function is a *thread root* when its address is
  taken (lifted code spawns workers by passing ``ptrtoint @worker`` to an
  external ``spawn``), or when no defined function calls it (``main``, or
  anything callable from outside the module).

Indirect calls (through a non-``Function`` callee) and calls to declared
externals do not produce edges; callers of such sites are flagged so
clients can stay conservative there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..lir import Call, Cast, Function, Module

#: externals whose function-pointer argument starts a new thread; the
#: start routine is address-taken and escaping even if the use-list walk
#: cannot attribute the pointer back to the function
THREAD_SPAWNERS = frozenset({"pthread_create", "spawn"})


@dataclass
class CallSite:
    """One direct call instruction, resolved if the callee is defined."""

    caller: Function
    call: Call
    callee: Function | None  # defined intra-module callee, else None


@dataclass
class CallGraph:
    module: Module
    #: caller name -> every call site in its body (resolved or not)
    sites: dict[str, list[CallSite]] = field(default_factory=dict)
    #: caller name -> defined callee names (direct calls only)
    callees: dict[str, set[str]] = field(default_factory=dict)
    #: callee name -> defined caller names
    callers: dict[str, set[str]] = field(default_factory=dict)
    #: functions containing a call we could not resolve to a defined callee
    has_opaque_call: set[str] = field(default_factory=set)
    #: defined functions whose address is used as data (escaped fn pointers)
    address_taken: set[str] = field(default_factory=set)

    # -- queries -------------------------------------------------------

    def defined(self) -> list[Function]:
        return [f for f in self.module.functions.values()
                if not f.is_declaration]

    def thread_roots(self) -> list[Function]:
        """Functions that may start a thread: address-taken functions plus
        every defined function with no intra-module caller."""
        roots = []
        for func in self.defined():
            if func.name in self.address_taken or not self.callers[func.name]:
                roots.append(func)
        return roots

    def reachable_from(self, root: Function) -> list[Function]:
        """Defined functions reachable from ``root`` via direct calls,
        ``root`` first, in deterministic discovery order."""
        seen = {root.name}
        order = [root]
        work = [root.name]
        while work:
            name = work.pop(0)
            for callee in sorted(self.callees.get(name, ())):
                if callee not in seen:
                    seen.add(callee)
                    order.append(self.module.functions[callee])
                    work.append(callee)
        return order


def build_callgraph(module: Module) -> CallGraph:
    graph = CallGraph(module)
    defined = {f.name for f in module.functions.values()
               if not f.is_declaration}
    for func in module.functions.values():
        graph.callees.setdefault(func.name, set())
        graph.callers.setdefault(func.name, set())
    for func in module.functions.values():
        if func.is_declaration:
            continue
        sites = graph.sites.setdefault(func.name, [])
        for inst in func.instructions():
            if not isinstance(inst, Call):
                continue
            callee = inst.callee
            resolved = None
            if isinstance(callee, Function) and callee.name in defined:
                resolved = module.functions[callee.name]
                graph.callees[func.name].add(callee.name)
                graph.callers[callee.name].add(func.name)
            elif not inst.is_readnone_callee():
                graph.has_opaque_call.add(func.name)
            sites.append(CallSite(func, inst, resolved))
    # Address-taken: a defined Function value used anywhere but as the
    # callee operand of a call (e.g. ptrtoint @worker fed to spawn).
    for name in defined:
        func = module.functions[name]
        for user in func.users:
            if isinstance(user, Call) and user.callee is func and \
                    all(arg is not func for arg in user.args):
                continue
            graph.address_taken.add(name)
            break
    # Thread spawn sites: the start-routine argument of pthread_create /
    # spawn is a thread entry point even when the use-list walk above
    # cannot attribute the pointer value back to the function (the
    # argument is peeled through ptrtoint/inttoptr/bitcast chains here,
    # matching how both the lifter and the minicc frontend pass workers).
    for sites in graph.sites.values():
        for site in sites:
            callee = site.call.callee
            if site.callee is not None or not hasattr(callee, "name"):
                continue
            base = callee.name.split("@", 1)[0]
            if _spawner_name(base) not in THREAD_SPAWNERS:
                continue
            for arg in site.call.args:
                target = _peel_function(arg)
                if target is not None and target.name in defined:
                    graph.address_taken.add(target.name)
    return graph


def _spawner_name(name: str) -> str:
    """Canonical external name (strips glibc decoration so e.g.
    ``__pthread_create_2_1`` matches ``pthread_create``)."""
    from ..loader.externs import normalize_name
    return normalize_name(name)


def _peel_function(value) -> Function | None:
    """The defined Function behind a (possibly cast-wrapped) value."""
    for _ in range(8):
        if isinstance(value, Function):
            return value
        if isinstance(value, Cast):
            value = value.value
        else:
            return None
    return None


def tarjan_sccs(graph: CallGraph) -> list[list[str]]:
    """Strongly-connected components of the defined-function call graph in
    *reverse topological* order: every SCC appears after all SCCs it calls
    into — exactly the bottom-up order summary computation wants."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = [0]
    names = sorted(f.name for f in graph.defined())

    def strongconnect(v: str) -> None:
        # Iterative Tarjan (explicit work stack) to survive deep chains.
        work = [(v, iter(sorted(graph.callees.get(v, ()))))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(graph.callees.get(w, ())))))
                    advanced = True
                    break
                elif w in on_stack:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == node:
                        break
                sccs.append(scc)

    for name in names:
        if name not in index:
            strongconnect(name)
    return sccs
