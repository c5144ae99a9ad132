"""Command-line interface.

Exit codes: 0 success (model found / check passed), 1 negative result
(no model within scope / check failed), 2 usage or input errors,
3 internal errors or solver resource limits.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from cncsynth.checker import IllFormedModelError, evaluate_spec, satisfies
from cncsynth.dsl import (
    DslError,
    export_dot,
    parse_model,
    parse_spec,
    parse_style,
    parse_view,
    print_model,
    print_view,
)
from cncsynth.encoder import EncodingError, encode
from cncsynth.model import CncModel
from cncsynth.reduction import Cnf3Formula, reduce_3sat, reduction_scope, solve_3sat
from cncsynth.sat import CnfInstance, SolverConfig, SolverError, SolverLimits, emit_dimacs
from cncsynth.speclang import (
    ResolvedSpec,
    ScopeHints,
    SpecResolutionError,
    ViewSpec,
    format_formula,
    resolve,
)
from cncsynth.synth import SoundnessError, SynthOutcome, enumerate_models, synthesize

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def load_model(path: str) -> CncModel:
    return parse_model(_read(path), path)


def load_spec(path: str) -> ResolvedSpec:
    """Parse a .cncspec file; each referenced view is read from
    ``<ViewName>.cncview`` in the spec file's directory."""
    src = parse_spec(_read(path), path)
    base = Path(path).parent
    views = []
    for name in src.view_names:
        vpath = base / f"{name}.cncview"
        if not vpath.exists():
            raise CliError(f"{path}: view {name!r} has no file {vpath}")
        views.append(parse_view(_read(str(vpath)), name, str(vpath)))
    return resolve(ViewSpec(src.name, tuple(views), src.formula, src.patterns,
                            src.library, src.style, src.scope_hints))


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None


def _write(path: str | Path, text: str, parents: bool = False) -> None:
    """Write ``text`` to ``path``, making its directory first if ``parents``."""
    try:
        if parents:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from None


def _solver_config(args: argparse.Namespace) -> SolverConfig:
    engine = args.solver or os.environ.get("CNCSYNTH_SOLVER") or "internal"
    limits = SolverLimits(conflicts=args.conflicts, wall_seconds=args.timeout)
    return SolverConfig(engine=engine, limits=limits)


def _scoped_spec(args: argparse.Namespace, spec: ResolvedSpec) -> ResolvedSpec:
    """Apply --ports/--extra-names/--extra-types overrides to the spec's
    scope hints."""
    hints = spec.scope_hints
    override = ScopeHints(
        ports=args.ports if args.ports is not None else hints.ports,
        extra_names=args.extra_names if args.extra_names is not None else hints.extra_names,
        extra_types=args.extra_types if args.extra_types is not None else hints.extra_types,
    )
    return dataclasses.replace(spec, scope_hints=override)


def _scope_json(scope) -> dict:
    return {"components": list(scope.components), "ports": scope.ports,
            "portNames": list(scope.port_names), "types": list(scope.types)}


def _clause_counts(cnf: CnfInstance) -> dict[str, int]:
    """Clauses per constraint group of an encoding."""
    counts: dict[str, int] = {}
    for label, start, end in cnf.groups:
        counts[label] = counts.get(label, 0) + end - start
    return counts


def _port_clashes(spec: ResolvedSpec, payload: dict) -> list[str]:
    """Put the spec's port clashes into ``payload`` as ``portClashes`` (a
    null source is the library) and return one line for each."""
    payload["portClashes"] = [
        {"component": c.component, "port": c.name, "lacking": list(c.lacking),
         "declarations": [{"source": src, "direction": p.direction.value, "type": p.type}
                          for src, p in c.declarations]}
        for c in spec.port_clashes]
    return [str(c) for c in spec.port_clashes]


def _emit(args: argparse.Namespace, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif human:
        print(human, end="" if human.endswith("\n") else "\n")


# --- Subcommands --------------------------------------------------------------

def _styled_spec(args: argparse.Namespace, spec: ResolvedSpec) -> ResolvedSpec:
    if not args.style:
        return spec
    style = parse_style(args.style, "<--style>")
    for c in style.tops:
        if c not in spec.component_names:
            raise CliError(f"--style references unknown component {c!r}")
    return dataclasses.replace(spec, style=style)


def cmd_synth(args: argparse.Namespace) -> int:
    if args.enumerate is not None:
        if args.enumerate < 1:
            raise CliError(f"--enumerate needs N >= 1, got {args.enumerate}")
        if args.out or args.dot:
            raise CliError("--enumerate cannot be combined with --out or --dot")
    spec = _styled_spec(args, _scoped_spec(args, load_spec(args.spec)))
    config = _solver_config(args)
    if args.enumerate is not None:
        return _synth_enumerate(args, spec, config)
    result = synthesize(spec, config=config)
    scope = result.encoding.scope
    payload = {
        "outcome": result.outcome.value,
        "scope": _scope_json(scope),
        "stats": {"conflicts": result.stats.conflicts, "decisions": result.stats.decisions,
                  "propagations": result.stats.propagations},
        "clauses": _clause_counts(result.encoding.cnf),
    }
    if result.outcome is SynthOutcome.RESOURCE_LIMIT:
        _emit(args, payload, "resource limit reached before a verdict")
        return EXIT_INTERNAL
    if result.outcome is SynthOutcome.UNSAT:
        lines = [f"unsatisfiable within scope (ports={scope.ports}, "
                 f"components={len(scope.components)})", *_port_clashes(spec, payload)]
        _emit(args, payload, "\n".join(lines))
        return EXIT_NEGATIVE
    text = print_model(result.model)
    payload["perView"] = dict(sorted(result.evaluation.per_view.items()))
    payload["model"] = text
    if args.out:
        _write(args.out, text)
    if args.dot:
        _write(args.dot, export_dot(result.model, spec.name))
    _emit(args, payload, text if not args.out else f"model written to {args.out}")
    return EXIT_OK


def _synth_enumerate(args: argparse.Namespace, spec: ResolvedSpec, config: SolverConfig) -> int:
    models = []
    limited = False
    try:
        for model in enumerate_models(spec, limit=args.enumerate, config=config):
            models.append(print_model(model))
    except TimeoutError:
        limited = True
    payload = {"outcome": "resource-limit" if limited else "sat" if models else "unsat",
               "count": len(models), "models": models}
    lines = [f"// model {i + 1}\n{text}" for i, text in enumerate(models)]
    if limited:
        lines.append("resource limit reached during enumeration")
    elif not models:
        lines += ["no model within scope", *_port_clashes(spec, payload)]
    _emit(args, payload, "\n".join(lines))
    return EXIT_INTERNAL if limited else EXIT_OK if models else EXIT_NEGATIVE


def cmd_check(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    result = satisfies(model, parse_view(_read(args.view), Path(args.view).stem, args.view))
    payload = {"outcome": "pass" if result.satisfied else "fail",
               "violations": [str(v) for v in result.violations]}
    human = "pass" if result.satisfied else "fail\n" + "\n".join(f"  {v}" for v in result.violations)
    _emit(args, payload, human)
    return EXIT_OK if result.satisfied else EXIT_NEGATIVE


def cmd_eval(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    spec = load_spec(args.spec)
    result = evaluate_spec(model, spec)
    payload = {"outcome": "pass" if result.overall else "fail",
               "formula": result.formula_value,
               "perView": dict(sorted(result.per_view.items())),
               "violations": [str(v) for v in result.constraint_violations]}
    lines = [f"{'pass' if result.overall else 'fail'} (formula={'1' if result.formula_value else '0'})"]
    lines += [f"  view {n}: {'sat' if ok else 'unsat'}" for n, ok in sorted(result.per_view.items())]
    lines += [f"  constraint violated: {v}" for v in result.constraint_violations]
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK if result.overall else EXIT_NEGATIVE


def cmd_reduce3sat(args: argparse.Namespace) -> int:
    text = _read(args.cnf)
    try:
        f = Cnf3Formula.from_dimacs(text)
    except (SolverError, ValueError) as exc:
        raise CliError(f"{args.cnf}: {exc}") from None
    if (args.out_dir or args.spec_only) and (f.num_vars == 0 or () in f.clauses):
        why = ("it has no variables, so its spec would name no view" if f.num_vars == 0
               else f"clause {f.clauses.index(()) + 1} is empty, which a spec formula cannot state")
        raise CliError(f"{args.cnf}: {why}")
    if args.out_dir:
        spec = reduce_3sat(f)
        outd = Path(args.out_dir)
        files = {f"{v.name}.cncview": print_view(v) for v in spec.views}
        names = ", ".join(v.name for v in spec.views)
        files["from3sat.cncspec"] = (
            "spec from3sat {\n"
            f"  views {{ {names} }}\n"
            f"  formula: {format_formula(spec.formula)};\n"
            "  scope { ports = 0; extra-names = 0; extra-types = 0; }\n"
            "}\n")
        for name, text in files.items():
            _write(outd / name, text, parents=True)
        _emit(args, {"outcome": "written", "dir": str(outd), "views": len(spec.views)},
              f"{len(spec.views)} view files and from3sat.cncspec written to {outd}")
        return EXIT_OK
    if args.spec_only:
        spec = resolve(reduce_3sat(f))
        scope = reduction_scope(f)
        enc = encode(spec, scope)
        _emit(args, {"outcome": "encoded", "scope": _scope_json(scope),
                     "variables": enc.cnf.num_vars, "clauses": len(enc.cnf.clauses)},
              emit_dimacs(enc.cnf))
        return EXIT_OK
    assignment = solve_3sat(f, _solver_config(args))
    if assignment is None:
        _emit(args, {"outcome": "unsat"}, "s UNSATISFIABLE")
        return EXIT_NEGATIVE
    lits = [i if assignment[i] else -i for i in sorted(assignment)]
    _emit(args, {"outcome": "sat", "assignment": lits},
          "s SATISFIABLE\nv " + " ".join(map(str, [*lits, 0])))
    return EXIT_OK


def cmd_emit_dimacs(args: argparse.Namespace) -> int:
    spec = _scoped_spec(args, load_spec(args.spec))
    enc = encode(spec)
    text = emit_dimacs(enc.cnf)
    if args.out:
        _write(args.out, text)
        print(f"{enc.cnf.num_vars} variables, {len(enc.cnf.clauses)} clauses written to {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


def cmd_export_dot(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    text = export_dot(model, Path(args.model).stem)
    if args.out:
        _write(args.out, text)
    else:
        print(text, end="")
    return EXIT_OK


# --- Entry point --------------------------------------------------------------

def _add_scope_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--ports", type=int, help="number of port slots in the synthesis scope")
    sp.add_argument("--extra-names", type=int, dest="extra_names",
                    help="fresh port names beyond those declared in the views")
    sp.add_argument("--extra-types", type=int, dest="extra_types",
                    help="fresh types beyond those declared in the views")


def _add_solver_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--solver", help="external SAT solver executable (default: internal; "
                                     "also settable via CNCSYNTH_SOLVER)")
    sp.add_argument("--conflicts", type=int, help="conflict limit for the whole run, all the models "
                                                    "of an enumeration together (internal solver only)")
    sp.add_argument("--timeout", type=float, help="wall-clock limit in seconds")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cncsynth",
                                     description="Synthesize component-and-connector models "
                                                 "from structural views.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="synthesize a model from a .cncspec specification")
    sp.add_argument("spec")
    sp.add_argument("--out", help="write the model to this .cnc file")
    sp.add_argument("--dot", help="also write a DOT rendering of the model")
    sp.add_argument("--enumerate", "--max-solutions", type=int, metavar="N",
                    dest="enumerate", help="produce up to N distinct models")
    sp.add_argument("--style", help="override the spec's architectural style, e.g. "
                                    "'hierarchical' or 'client-server(server = S, clients = A, B)'")
    sp.add_argument("--json", action="store_true")
    _add_scope_args(sp)
    _add_solver_args(sp)
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("check", help="check a .cnc model against one .cncview view")
    sp.add_argument("model")
    sp.add_argument("view")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("eval", help="evaluate a .cnc model against a full .cncspec")
    sp.add_argument("model")
    sp.add_argument("spec")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("reduce3sat", help="decide a DIMACS 3SAT instance via view synthesis")
    sp.add_argument("cnf")
    mode = sp.add_mutually_exclusive_group()
    mode.add_argument("--spec-only", action="store_true",
                      help="emit the reduced instance's CNF encoding instead of solving")
    mode.add_argument("-o", "--out-dir", dest="out_dir",
                      help="write the reduced spec and view files to this directory instead of solving")
    sp.add_argument("--json", action="store_true")
    _add_solver_args(sp)
    sp.set_defaults(func=cmd_reduce3sat)

    sp = sub.add_parser("emit-dimacs", help="emit the CNF encoding of a specification")
    sp.add_argument("spec")
    sp.add_argument("--out")
    _add_scope_args(sp)
    sp.set_defaults(func=cmd_emit_dimacs)

    sp = sub.add_parser("export-dot", help="render a .cnc model as a DOT digraph")
    sp.add_argument("model")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_export_dot)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (DslError, SpecResolutionError, EncodingError, CliError, ValueError) as exc:
        code = exc.code if isinstance(exc, CliError) else EXIT_USAGE
        print(f"error: {exc}", file=sys.stderr)
        return code
    except IllFormedModelError as exc:
        print(f"error: ill-formed model: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (SolverError, SoundnessError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
