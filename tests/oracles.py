"""Independent reference implementations used as test oracles.

Everything here is written from the definitions directly, sharing no logic
with the package under test beyond the immutable data types, so agreement
between the two is meaningful evidence of correctness.
"""

from __future__ import annotations

import itertools

from cncsynth.model import CncModel, CncView, Direction


def truth_table_sat(num_vars: int, clauses) -> bool:
    """Brute-force satisfiability of a clause list over variables 1..n."""
    for bits in itertools.product((False, True), repeat=num_vars):
        if all(any((lit > 0) == bits[abs(lit) - 1] for lit in clause)
               for clause in clauses):
            return True
    return False


def projected_models(num_vars: int, clauses, projection) -> set[tuple[bool, ...]]:
    """The values on ``projection`` (in its order) of every assignment to
    variables 1..n that satisfies ``clauses``, by truth table."""
    return {tuple(bits[v - 1] for v in projection)
            for bits in itertools.product((False, True), repeat=num_vars)
            if all(any((lit > 0) == bits[abs(lit) - 1] for lit in clause) for clause in clauses)}


def assignment_satisfies(clauses, assignment: dict[int, bool]) -> bool:
    return all(any((lit > 0) == assignment[abs(lit)] for lit in clause)
               for clause in clauses)


# --- Reference model-vs-view satisfaction -------------------------------------

def _containment_closure(m: CncModel) -> set[tuple[str, str]]:
    """All (ancestor, descendant) pairs, via Floyd-Warshall."""
    names = [c.name for c in m.components]
    reach = {(a, b): False for a in names for b in names}
    for c in m.components:
        for child in c.subcomponents:
            if child in m.by_name:
                reach[(c.name, child)] = True
    for k in names:
        for a in names:
            for b in names:
                if reach[(a, k)] and reach[(k, b)]:
                    reach[(a, b)] = True
    return {pair for pair, v in reach.items() if v}


def _connector_closure(m: CncModel) -> set[tuple[tuple[str, str], tuple[str, str]]]:
    """All port pairs joined by a non-empty connector chain (Floyd-Warshall)."""
    ports = [(c.name, p.name) for c in m.components for p in c.ports]
    reach = {(a, b): False for a in ports for b in ports}
    for conn in m.connectors:
        reach[((conn.src.component, conn.src.port),
               (conn.tgt.component, conn.tgt.port))] = True
    for k in ports:
        for a in ports:
            for b in ports:
                if reach[(a, k)] and reach[(k, b)]:
                    reach[(a, b)] = True
    return {pair for pair, v in reach.items() if v}


def oracle_satisfies(m: CncModel, v: CncView) -> bool:
    """Reference model-vs-view satisfaction check.

    A model satisfies a view iff: the view's types and components occur in
    the model; every view port occurs on its component with the same name
    and direction, and the same type when the view gives one; every pair of
    view components is nested in the model exactly when the view nests it
    (in particular, view-independent components are model-independent); and
    every abstract connector is realized by a chain of connectors between
    admissible endpoint ports.
    """
    if not v.types <= m.types:
        return False
    model_comps = {c.name for c in m.components}
    if not {c.name for c in v.components} <= model_comps:
        return False

    for vc in v.components:
        mc = m.by_name[vc.name]
        for vp in vc.ports:
            match = [p for p in mc.ports
                     if p.name == vp.name and p.direction == vp.direction
                     and (vp.type is None or p.type == vp.type)]
            if not match:
                return False

    closure = _containment_closure(m)
    vnames = [c.name for c in v.components]
    for a in vnames:
        for b in vnames:
            if a != b and (((a, b) in v.contains) != ((a, b) in closure)):
                return False

    chains = _connector_closure(m)
    for ac in v.abs_connectors:
        sources = [(ac.src_cmp, p.name) for p in m.by_name[ac.src_cmp].ports
                   if (ac.src_port is None or p.name == ac.src_port)
                   and (ac.src_type is None or p.type == ac.src_type)]
        targets = [(ac.tgt_cmp, p.name) for p in m.by_name[ac.tgt_cmp].ports
                   if (ac.tgt_port is None or p.name == ac.tgt_port)
                   and (ac.tgt_type is None or p.type == ac.tgt_type)]
        if not any((s, t) in chains for s in sources for t in targets):
            return False
    return True


# --- Reference end-to-end component graph and acyclicity ----------------------

def oracle_end_to_end_edges(m: CncModel) -> set[tuple[str, str]]:
    """Component pairs with an end-to-end chain: from a chain-initial port
    (no incoming connector) to a chain-final port (no outgoing connector)."""
    chains = _connector_closure(m)
    has_in = {(c.tgt.component, c.tgt.port) for c in m.connectors}
    has_out = {(c.src.component, c.src.port) for c in m.connectors}
    return {(s[0], t[0]) for (s, t) in chains
            if s not in has_in and t not in has_out}


def oracle_is_acyclic(edges: set[tuple[str, str]]) -> bool:
    """DFS three-color cycle detection on a component edge set."""
    adj: dict[str, list[str]] = {}
    nodes: set[str] = set()
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        nodes.update((a, b))
    state: dict[str, int] = {}  # 1 = on stack, 2 = done

    def visit(n: str) -> bool:
        state[n] = 1
        for nxt in adj.get(n, ()):
            if state.get(nxt) == 1:
                return False
            if state.get(nxt) != 2 and not visit(nxt):
                return False
        state[n] = 2
        return True

    return all(state.get(n) == 2 or visit(n) for n in sorted(nodes))
