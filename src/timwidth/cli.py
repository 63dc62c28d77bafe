"""Command-line interface.

Answers and structural statistics go to stdout and are deterministic for a
fixed input, seed, and flag set; timings go to stderr.
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from .bench import run_suite, table_peak, write_csv
from .core import TemporalGraphError
from .decomposition import compute_tim_decomposition, tim_width, validate_decomposition
from .generators import (
    GeneratorError,
    gen_hard_ham_path,
    gen_ordered_tree,
    gen_random,
)
from .io import (
    ParseError,
    decomposition_to_dot,
    emit_decomposition,
    emit_graph_file,
    parse_dimacs_2cnf,
    parse_graph_file,
)
from .oracles import (
    oracle_firefighter,
    oracle_ham,
    oracle_matching,
    oracle_tred,
)
from .problems import (
    FirefighterInstance,
    MatchingInstance,
    TredInstance,
    gen_firefighter_hardness,
    solve_firefighter,
    solve_hamiltonian,
    solve_matching,
    solve_tred,
)
from .tim_engine import TwoStepStructure
from .vim_engine import ResourceLimitError
from .widths import bidirectional_cvim_width, connected_vim_width, vim_sequence

PROBLEMS = {
    "temporal-hamiltonian-path": "ham",
    "ham": "ham",
    "temporal-firefighter": "ff",
    "firefighter": "ff",
    "ff": "ff",
    "delta-temporal-matching": "matching",
    "matching": "matching",
    "temporal-reachability-edge-deletion": "tred",
    "tred": "tred",
}


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def cmd_widths(args):
    gf = parse_graph_file(_read(args.file))
    g = gf.graph
    vs = vim_sequence(g)
    print(
        "vim={} cvim_le={} cvim_ge={} cvim_bi={} tim={}".format(
            vs.width,
            connected_vim_width(g, "le", vs).width,
            connected_vim_width(g, "ge", vs).width,
            bidirectional_cvim_width(g),
            tim_width(g),
        )
    )
    return 0


def cmd_decompose(args):
    g = parse_graph_file(_read(args.file)).graph
    d = compute_tim_decomposition(g)
    if args.two_step:
        # the structure validates d, the one check on this path
        try:
            ts = TwoStepStructure(g, d)
        except ValueError as exc:
            print(f"internal error: decomposition invalid: {exc}", file=sys.stderr)
            return 2
        sys.stdout.write(emit_decomposition(d))
        for s, (t, pair_set) in enumerate(zip(ts.rooted.times, ts.pairs)):
            pairs = ",".join(f"{v}@{u}" for v, u in sorted(pair_set, key=lambda p: (p[1], p[0])))
            print(f"two-step {s} time={t} pairs={pairs}")
        print(f"two-step-width {ts.width}")
        return 0
    report = validate_decomposition(g, d)
    if not report.ok:
        print(f"internal error: decomposition invalid: {report.violation.message}", file=sys.stderr)
        return 2
    sys.stdout.write(decomposition_to_dot(d) if args.dot else emit_decomposition(d))
    return 0


def _solve_instance(problem, gf, args, engine):
    g = gf.graph
    if problem == "ham":
        return solve_hamiltonian(g, engine)
    if problem == "ff":
        root = args.root if args.root is not None else gf.root
        if root is None:
            raise ValueError("firefighter needs --root or a root directive")
        if engine == "tim":
            print(
                "warning: firefighter is NP-hard for bounded TIM width alone; "
                "tractability also needs bounded lifetime",
                file=sys.stderr,
            )
        return solve_firefighter(FirefighterInstance(g, root, args.saves), engine)
    if problem == "matching":
        if engine != "tim":
            raise ValueError("matching is implemented for the tim engine")
        return solve_matching(MatchingInstance(g, args.delta, args.size))
    if problem == "tred":
        source = args.source if args.source is not None else gf.source
        if source is None:
            raise ValueError("tred needs --source or a source directive")
        if engine != "tim":
            raise ValueError("tred is implemented for the tim engine")
        return solve_tred(TredInstance(g, source, args.reach, args.deletions))


def cmd_solve(args):
    problem = PROBLEMS.get(args.problem)
    if problem is None:
        raise ValueError(f"unknown problem {args.problem!r}")
    gf = parse_graph_file(_read(args.file))
    start = time.perf_counter()
    engine = args.engine or ("tim" if problem in ("matching", "tred") else "vim")
    answer, result = _solve_instance(problem, gf, args, engine)
    elapsed_ms = (time.perf_counter() - start) * 1000
    print("yes" if answer else "no")
    bag_count, peak = table_peak(result)
    print(f"bags={bag_count} max_table={peak}")
    print(f"time_ms={elapsed_ms:.1f}", file=sys.stderr)
    return 0


def cmd_gen(args):
    if args.kind == "hardness":
        if not args.cnf:
            raise ValueError("hardness generation needs --cnf <file>")
        cnf = parse_dimacs_2cnf(_read(args.cnf))
        inst = gen_firefighter_hardness(cnf, args.satisfied)
        print(f"# target_saves={inst.saves_target}")
        sys.stdout.write(emit_graph_file(inst.graph, root=inst.root))
        return 0
    if args.kind == "random":
        g = gen_random(args.n, args.lifetime, args.p, args.max_times, seed=args.seed)
    elif args.kind == "ordered-tree":
        g = gen_ordered_tree(
            args.n,
            seed=args.seed,
            max_times_per_edge=args.max_times,
            time_budget=args.time_budget,
        )
    else:
        g = gen_hard_ham_path(args.n)
    sys.stdout.write(emit_graph_file(g, root=args.root, source=args.source))
    return 0


def cmd_verify(args):
    """Cross-check engines and oracles; each disagreeing instance goes to
    stderr as a .tg file headed by a '#' line with its problem, its
    `timwidth solve` options and the answers given."""
    if args.count < 0:
        raise ValueError(f"count {args.count} is below 0")
    rng = random.Random(args.seed)
    agree = 0
    total = 0
    for i in range(args.count):
        n = rng.randint(3, 6)
        lam = rng.randint(1, 4)
        g = gen_random(n, lam, 0.4, max_times_per_edge=2, seed=rng.randrange(1 << 30))
        checks = []
        answers = dict(
            vim=solve_hamiltonian(g, "vim")[0],
            tim=solve_hamiltonian(g, "tim")[0],
            oracle=oracle_ham(g),
        )
        checks.append(("ham", emit_graph_file(g), answers))
        root = rng.randrange(n)
        h = rng.randint(0, n)
        inst = FirefighterInstance(g, root, h)
        answers = dict(
            vim=solve_firefighter(inst, "vim")[0],
            tim=solve_firefighter(inst, "tim")[0],
            oracle=oracle_firefighter(g, root, h),
        )
        checks.append((f"ff --saves {h}", emit_graph_file(g, root=root), answers))
        delta = rng.randint(1, 3)
        hm = rng.randint(0, 3)
        answers = dict(
            tim=solve_matching(MatchingInstance(g, delta, hm))[0],
            oracle=oracle_matching(g, delta, hm),
        )
        checks.append((f"matching --delta {delta} --size {hm}", emit_graph_file(g), answers))
        src = rng.randrange(n)
        r = rng.randint(1, n)
        hd = rng.randint(0, 2)
        answers = dict(
            tim=solve_tred(TredInstance(g, src, r, hd))[0],
            oracle=oracle_tred(g, src, r, hd),
        )
        checks.append((f"tred --reach {r} --deletions {hd}", emit_graph_file(g, source=src), answers))
        for problem, text, answers in checks:
            total += 1
            if len(set(answers.values())) == 1:
                agree += 1
            else:
                given = " ".join(f"{k}={'yes' if a else 'no'}" for k, a in answers.items())
                sys.stderr.write(f"# {problem} ({given})\n{text}")
    print(f"{agree}/{total} agree")
    return 0 if agree == total else 1


def cmd_bench(args):
    rows = run_suite(args.suite, seed=args.seed)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            write_csv(rows, fh)
    else:
        write_csv(rows, sys.stdout)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="timwidth",
        description="Interval-membership widths and DP solvers for temporal graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("widths", help="print all width parameters of a graph")
    p.add_argument("file")
    p.set_defaults(func=cmd_widths)

    p = sub.add_parser("decompose", help="print a minimum TIM decomposition")
    p.add_argument("file")
    form = p.add_mutually_exclusive_group()
    form.add_argument("--two-step", action="store_true")
    form.add_argument("--dot", action="store_true", help="emit graphviz instead")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("solve", help="decide a problem instance")
    p.add_argument("problem")
    p.add_argument("file")
    p.add_argument("--engine", choices=("vim", "tim"), help="default: tim for matching and tred, else vim")
    p.add_argument("--root", type=int, default=None)
    p.add_argument("--source", type=int, default=None)
    p.add_argument("--saves", type=int, default=1, help="firefighter target")
    p.add_argument("--delta", type=int, default=1)
    p.add_argument("--size", type=int, default=1, help="matching target")
    p.add_argument("--reach", type=int, default=1)
    p.add_argument("--deletions", type=int, default=0)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("gen", help="generate an instance file on stdout")
    p.add_argument("kind", choices=("random", "ordered-tree", "hard-ham-path", "hardness"))
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--lifetime", type=int, default=5)
    p.add_argument("--p", type=float, default=0.3)
    p.add_argument("--max-times", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--root", type=int, default=None)
    p.add_argument("--source", type=int, default=None)
    p.add_argument("--time-budget", type=int, default=None)
    p.add_argument("--cnf", default=None)
    p.add_argument("--satisfied", type=int, default=0, help="clause target k")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="cross-check engines against the oracles")
    p.add_argument("--count", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="run a benchmark suite, CSV output")
    p.add_argument("suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, TemporalGraphError, GeneratorError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
