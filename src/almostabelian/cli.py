"""Command line surface.

Subcommands: enumerate, classify, invariants, verify, export.  Exit
statuses: 0 success / all checks passed, 1 usage or parse error, input
over a size limit or an --output path that cannot be written, 2
classification answered "no complex structure", 3 verification failure,
141 standard output closed by its reader before all output was written
(as in `enumerate --dim 40 | head -1`; nothing is printed on stderr).
All output is deterministic: identical inputs give identical bytes.

Size limits, checked before any work starts (one "error:" line on
stderr and exit status 1 above them): invariants and export take models
with n = sum(q) <= 150, and invariants --oracle n <= 8; enumerate takes
--dim <= 100; classify takes Jordan types of total size <= 1000000;
verify takes --max-dim <= 16.
"""

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from math import comb

from .cohomology import CHECKS, run_checks
from .exactla import jordan_block
from .model import (
    ComplexModel,
    InvalidModelError,
    admits_complex_structure,
    enumerate_models,
    structure_equations,
)
from .partitions import Partition, partitions_of, restricted_count, restricted_counts
from .records import ExportRecord, compact_equations
from .sl2 import delta, irreducible, tensor, wedge, wedge_weight_oracle

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_COMPLEX = 2
EXIT_VERIFY_FAILED = 3
EXIT_BROKEN_PIPE = 141  # what a shell reports for a process ended by SIGPIPE

WORKERS_ENV = "ALMOSTABELIAN_WORKERS"

# Size limits (see the module docstring), each set where its slowest
# input takes up to about a minute on one CPU: the closed forms grow
# with the largest part of q, through the knapsacks over the exterior
# algebras of b01 and g10 (q = [150] takes about 27 s and 202 MB, and
# q = [170] 295 MB, near CI's 300 MB bound), the rank oracles and the
# verify sweep exponentially in n, and enumerate walks every partition of n.
# classify is linear in the number of parts of --jordan, so memory
# (about 100 MB per million parts) sets its limit before time does.
MAX_MODEL_N = 150
MAX_ORACLE_N = 8
MAX_ENUMERATE_DIM = 100
MAX_CLASSIFY_TOTAL = 10**6
MAX_VERIFY_DIM = 16


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit status 2 on bad usage; we reserve 2 for
    a negative classification, so usage errors exit with 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


def partition_argument(text):
    try:
        parts = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated integers, got %r" % text)
    if not parts:
        raise argparse.ArgumentTypeError("empty partition")
    try:
        return Partition(parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def build_parser():
    parser = _Parser(prog="almostabelian", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("enumerate", help="list the models of one dimension")
    p.add_argument("--dim", type=int, required=True, help="algebra dimension (even, >= 4)")

    p = sub.add_parser("classify", help="test a Jordan type for a complex structure")
    p.add_argument("--jordan", type=partition_argument, required=True, metavar="a,b,c",
                   help="Jordan block sizes, any order")

    p = sub.add_parser("invariants", help="Betti and Hodge tables of one model")
    p.add_argument("--q", type=partition_argument, required=True, metavar="a,b")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--oracle", action="store_true", help="use the rank oracle instead of the closed forms")
    p.add_argument("--output", default=None, help="write to this path instead of stdout")

    p = sub.add_parser("verify", help="run the full cross-check sweep")
    p.add_argument("--max-dim", type=int, default=12, dest="max_dim",
                   help="largest algebra dimension to sweep (default 12)")

    p = sub.add_parser("export", help="structure equations of one model")
    p.add_argument("--q", type=partition_argument, required=True, metavar="a,b")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--format", choices=("json", "salamon"), required=True)
    p.add_argument("--output", default=None, help="write to this path instead of stdout")

    return parser


def _emit(text, output):
    """Write to stdout or to the --output path; returns the exit status."""
    if output is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(output, "w") as handle:
            handle.write(text)
    except OSError as exc:
        sys.stderr.write("error: cannot write %s: %s\n" % (output, exc.strerror or exc))
        return EXIT_USAGE
    return EXIT_OK


def _over_limit(what, value, limit):
    """One error line for input above a size limit; returns the exit status."""
    sys.stderr.write("error: %s is %d, above the limit of %d\n" % (what, value, limit))
    return EXIT_USAGE


def _model_from_args(parser, args):
    try:
        return ComplexModel(args.q.n, args.q, args.j)
    except InvalidModelError as exc:
        parser.error(str(exc))


def cmd_enumerate(parser, args):
    if args.dim < 4 or args.dim % 2:
        parser.error("--dim must be an even integer >= 4")
    if args.dim > MAX_ENUMERATE_DIM:
        return _over_limit("--dim", args.dim, MAX_ENUMERATE_DIM)
    n = (args.dim - 2) // 2
    for c in enumerate_models(n):
        m = c.m
        sys.stdout.write(
            "m=%s q=%s j=%d eps=%d step=%d commutator=%d\n"
            % (m, c.q, c.j, c.epsilon, c.step, 2 * n + 1 - len(m))
        )
    return EXIT_OK


def cmd_classify(parser, args):
    m = args.jordan
    if m.n % 2 == 0 or m.n < 3:
        parser.error("--jordan must sum to an odd number >= 3")
    if m.n > MAX_CLASSIFY_TOTAL:
        return _over_limit("the total size of --jordan", m.n, MAX_CLASSIFY_TOTAL)
    witness = admits_complex_structure(m)
    if witness is None:
        sys.stdout.write("no complex structure for m=%s\n" % m)
        return EXIT_NO_COMPLEX
    sys.stdout.write("complex structure exists for m=%s: q=%s j=%d\n" % (m, witness.q, witness.j))
    return EXIT_OK


def _render_text_tables(record):
    lines = []
    lines.append(
        "model: n=%d q=[%s] j=%d eps=%d m=[%s] step=%d"
        % (
            record.n,
            ",".join(str(p) for p in record.q),
            record.j,
            record.epsilon,
            ",".join(str(p) for p in record.m),
            record.step,
        )
    )
    lines.append("source: %s" % record.source)
    lines.append("betti: " + " ".join(str(b) for b in record.betti))
    lines.append("hodge (rows p=0..%d, cols q=0..%d):" % (record.n + 1, record.n + 1))
    for row in record.hodge:
        lines.append("  " + " ".join(str(h) for h in row))
    checks = dict(record.checks)
    symmetry = "n/a" if checks["symmetry"] is None else ("yes" if checks["symmetry"] else "no")
    lines.append(
        "checks: frolicher=%s symmetry=%s nijenhuis=%s"
        % (
            "yes" if checks["frolicher"] else "no",
            symmetry,
            "yes" if checks["nijenhuis"] else "no",
        )
    )
    return "\n".join(lines) + "\n"


def cmd_invariants(parser, args):
    if args.oracle and args.q.n > MAX_ORACLE_N:
        return _over_limit("n with --oracle", args.q.n, MAX_ORACLE_N)
    if args.q.n > MAX_MODEL_N:
        return _over_limit("n", args.q.n, MAX_MODEL_N)
    model = _model_from_args(parser, args)
    record = ExportRecord.for_model(model, source="oracle" if args.oracle else "closed-form")
    if args.format == "json":
        return _emit(record.to_json(), args.output)
    return _emit(_render_text_tables(record), args.output)


def cmd_export(parser, args):
    if args.q.n > MAX_MODEL_N:
        return _over_limit("n", args.q.n, MAX_MODEL_N)
    model = _model_from_args(parser, args)
    if args.format == "salamon":
        return _emit(compact_equations(structure_equations(model)) + "\n", args.output)
    return _emit(ExportRecord.for_model(model).to_json(), args.output)


# -- verification sweep ---------------------------------------------------------


def _representation_identity_checks():
    checks = []
    for i in range(1, 16):
        for k in range(1, 16):
            checks.append(delta(tensor(irreducible(i), irreducible(k))) == min(i, k))
    for i in range(1, 13):
        for r in range(0, i + 1):
            w = wedge(irreducible(i), r)
            checks.append(delta(w) == restricted_count((r * (i - r)) // 2, i - r, r))
            checks.append(w == wedge(irreducible(i), i - r))
    for i in range(1, 11):
        for r in range(0, i + 1):
            checks.append(wedge(irreducible(i), r) == wedge_weight_oracle(irreducible(i), r))
    for n in range(1, 9):
        v = n * irreducible(2)
        checks.append(delta(wedge(v, 1)) == n)
        checks.append(delta(wedge(v, 2)) == n * n)
        checks.append(delta(wedge(v, 3)) == n * comb(n, 2))
        checks.append(delta(wedge(v, 4)) == comb(n, 2) ** 2)
        checks.append(delta(wedge(v, 5)) == comb(n, 2) * comb(n, 3))
    for v in (irreducible(4) + irreducible(2), 3 * irreducible(2), irreducible(5) + irreducible(3)):
        for r in range(0, v.dim() + 1):
            checks.append(wedge(v, r) == wedge_weight_oracle(v, r))
    for i in range(1, 11):
        # the one-block module has one-dimensional kernel and cokernel
        checks.append(jordan_block(i).rank() == i - 1)
    return checks


def _partition_identity_checks():
    """Palindromy, the swap n <-> r and the total C(n+r, r) of each
    Gaussian binomial row, read off one row per (n, r) and its swap."""
    checks = []
    for n in range(0, 11):
        for r in range(0, 11):
            top = n * r
            row, swap = restricted_counts(n, r, top), restricted_counts(r, n, top)
            for m in range(0, top + 1):
                checks.append(row[m] == row[top - m])
                checks.append(row[m] == swap[m])
            checks.append(sum(row) == comb(n + r, r))
    return checks


def _enumeration_checks(max_n):
    checks = []
    for n in range(1, max_n + 1):
        models = list(enumerate_models(n))
        ms = [c.m for c in models]
        checks.append(len(set(ms)) == len(ms))
        for q in partitions_of(n):
            expected = len({p + 1 for p in q.parts}) + 1
            if all(p == 1 for p in q.parts):
                expected -= 1
            checks.append(sum(1 for c in models if c.q == q) == expected)
        admitted = set(ms)
        for m in partitions_of(2 * n + 1):
            witness = admits_complex_structure(m)
            if m in admitted:
                checks.append(witness is not None and witness.m == m)
            else:
                checks.append(witness is None)
    return checks


def _worker_count():
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        requested = int(raw)
    except ValueError:
        sys.stderr.write(
            "warning: ignoring %s=%r: not an integer; using 1 worker\n" % (WORKERS_ENV, raw)
        )
        return 1
    return max(1, min(requested, os.cpu_count() or 1))


def run_verify(max_dim):
    """The full sweep; returns (summary lines, then one line per failing
    model check, and whether all passed)."""
    categories = []
    categories.append(("representation identities", _representation_identity_checks()))
    categories.append(("partition identities", _partition_identity_checks()))
    max_n = (max_dim - 2) // 2
    categories.append(("enumeration", _enumeration_checks(min(max_n, 6))))

    models = [c for n in range(1, max_n + 1) for c in enumerate_models(n)]
    workers = _worker_count()
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_model = list(pool.map(run_checks, models))
    else:
        per_model = list(map(run_checks, models))

    buckets = {}
    for results in per_model:
        for (_, category, _), ok in zip(CHECKS, results):
            buckets.setdefault(category, []).append(ok)
    categories.extend(buckets.items())
    failures = [
        "failed: %s check=%s" % (c, name)
        for c, results in zip(models, per_model)
        for (name, _, _), ok in zip(CHECKS, results)
        if not ok
    ]

    lines = []
    all_ok = True
    for title, bucket in categories:
        passed = sum(1 for ok in bucket if ok)
        failed = len(bucket) - passed
        all_ok = all_ok and failed == 0
        lines.append("%s: %d passed, %d failed" % (title, passed, failed))
    lines.append("models checked: %d" % len(models))
    lines.append("result: %s" % ("PASS" if all_ok else "FAIL"))
    return lines + failures, all_ok


def cmd_verify(parser, args):
    if args.max_dim < 4:
        parser.error("--max-dim must be >= 4")
    max_dim = args.max_dim - args.max_dim % 2
    if max_dim > MAX_VERIFY_DIM:
        return _over_limit("--max-dim", args.max_dim, MAX_VERIFY_DIM)
    lines, all_ok = run_verify(max_dim)
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "enumerate": cmd_enumerate,
        "classify": cmd_classify,
        "invariants": cmd_invariants,
        "verify": cmd_verify,
        "export": cmd_export,
    }
    try:
        status = handlers[args.command](parser, args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left; devnull keeps the flush at exit from failing again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return status


if __name__ == "__main__":
    sys.exit(main())
