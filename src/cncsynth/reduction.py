"""Reduction from 3SAT to view synthesis.

Each propositional variable x_i becomes two port-less components ``xT_i``
and ``xF_i`` plus two one-edge views: ``vT_i`` (``xF_i`` transitively
contains ``xT_i``, read as "x_i is true") and ``vF_i`` (the reverse
nesting, "x_i is false").  Containment antisymmetry makes the two views
mutually exclusive; the specification formula requires one of them per
variable and, per 3SAT clause, the disjunction of the literal views.  The
synthesizer is free to invent any nesting that realizes the chosen views
under a single top, and a satisfying truth assignment can be read back off
the containment relation of any synthesized model.
"""

from __future__ import annotations

from dataclasses import dataclass

from cncsynth.encoder import Scope
from cncsynth.model import CncModel, CncView, Component, contains_transitive
from cncsynth.sat import SolverConfig, parse_dimacs
from cncsynth.speclang import And, Or, Var, ViewSpec, resolve
from cncsynth.synth import SynthOutcome, synthesize


@dataclass(frozen=True)
class Cnf3Formula:
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "clauses", tuple(tuple(c) for c in self.clauses))
        for clause in self.clauses:
            if len(clause) > 3:
                raise ValueError(f"clause {clause} has more than three literals")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range")

    @staticmethod
    def from_dimacs(text: str) -> "Cnf3Formula":
        cnf = parse_dimacs(text)
        return Cnf3Formula(cnf.num_vars, cnf.clauses)


def true_component(i: int) -> str:
    return f"xT{i}"


def false_component(i: int) -> str:
    return f"xF{i}"


def true_view(i: int) -> str:
    return f"vT{i}"


def false_view(i: int) -> str:
    return f"vF{i}"


def _nesting_view(name: str, outer: str, inner: str) -> CncView:
    return CncView(name, (Component(outer, subcomponents=frozenset({inner})), Component(inner)))


def reduce_3sat(f: Cnf3Formula) -> ViewSpec:
    """Build the view-synthesis instance equivalent to ``f``."""
    views = []
    conjuncts = []
    for i in range(1, f.num_vars + 1):
        views.append(_nesting_view(true_view(i), false_component(i), true_component(i)))
        views.append(_nesting_view(false_view(i), true_component(i), false_component(i)))
        conjuncts.append(Or((Var(true_view(i)), Var(false_view(i)))))
    for clause in f.clauses:
        conjuncts.append(Or(Var(true_view(lit)) if lit > 0 else Var(false_view(-lit))
                            for lit in clause))
    return ViewSpec(name="from3sat", views=tuple(views), formula=And(conjuncts))


def reduction_scope(f: Cnf3Formula) -> Scope:
    """Components only; the reduction needs no ports, names or types."""
    components = sorted(c for i in range(1, f.num_vars + 1)
                        for c in (true_component(i), false_component(i)))
    return Scope(tuple(components), ports=0, port_names=(), types=())


def extract_assignment(model: CncModel, f: Cnf3Formula) -> dict[int, bool]:
    """Read the truth assignment off a synthesized model's containment."""
    return {i: contains_transitive(model, false_component(i), true_component(i))
            for i in range(1, f.num_vars + 1)}


def witness_model(f: Cnf3Formula, assignment: dict[int, bool]) -> CncModel:
    """The chain-nesting model realizing a satisfying assignment; used as an
    independent witness that the reduction preserves satisfiability."""
    order: list[str] = []
    for i in range(1, f.num_vars + 1):
        if assignment[i]:
            order += [false_component(i), true_component(i)]
        else:
            order += [true_component(i), false_component(i)]
    components = [Component(name, subcomponents=frozenset({order[k + 1]} if k + 1 < len(order) else ()))
                  for k, name in enumerate(order)]
    return CncModel(tuple(components))


def solve_3sat(f: Cnf3Formula, config: SolverConfig = SolverConfig()) -> dict[int, bool] | None:
    """Decide ``f`` by synthesis over the reduced specification."""
    if f.num_vars == 0:
        return None if any(len(c) == 0 for c in f.clauses) else {}
    result = synthesize(resolve(reduce_3sat(f)), scope=reduction_scope(f), config=config)
    if result.outcome is SynthOutcome.RESOURCE_LIMIT:
        raise TimeoutError("solver resource limit reached")
    if result.outcome is not SynthOutcome.SAT:
        return None
    return extract_assignment(result.model, f)
