"""Command-line front end: reproducible JSON reports for relation checks,
Gram matrices, Jucys-Murphy spectra, branching filtrations, semisimplicity
scans, products, and basis counts.

The command line is parsed by the standard library's argparse.  Each
command returns its exit code: 0 success, 1 a mathematical check failed,
2 usage error, 3 environment or cache error.  A usage error, whether the
parser or a command finds it, prints the command's usage line and
``qbrauer COMMAND: error: MESSAGE`` to stderr.
"""

import argparse
import json
import sys

from . import __version__
from .algebra import (
    E1,
    AlgebraError,
    MulTable,
    NormalWord,
    T,
    Tinv,
    all_normal_words,
    check_letter,
    elt_from_letters,
    mul as algebra_mul,
)
from .cells import cell_module, specialized_gram
from .coefficients import (
    DELTA,
    IntegerExponent,
    NumericPoint,
    ONE,
    Q,
    Z,
    ZINV,
    CoefficientError,
)
from .combinatorics import (
    IDENTITY,
    CombinatoricsError,
    brauer_dimension,
    check_label,
    is_partition,
    ud_str,
)
from .linalg import mat_det
from .semisimple import (
    DEFAULT_SEED,
    SemisimpleError,
    bad_exponent_set,
    brute_semisimple,
    criterion,
    scan as scan_exponents,
)

FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2
EXIT_ENV = 3

# the bound on every exponent flag: entries at z = q^a span about |a| powers
# of q, and the polynomial gcd sizes dense rows by that span (a row of 10^9
# terms cannot be allocated)
MAX_Z_EXP = 10**6


class UsageError(ValueError):
    """Bad command-line input: the command ends with exit code 2."""


class _Exit(Exception):
    """Ends a run with an exit code; main exits with it or returns it."""

    def __init__(self, code):
        super().__init__(code)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """argparse reports a usage error (code 2) or help (code 0) through
    exit; raising instead lets main return the code."""

    def exit(self, status=0, message=None):
        if message:
            sys.stderr.write(message)
        raise _Exit(status)


def _parse_partition(text):
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise UsageError(
            f"partition must be a bracketed comma list like [3,1,1], got {text!r}"
        )
    inner = text[1:-1].strip()
    if not inner:
        return ()
    try:
        parts = tuple(int(p) for p in inner.split(","))
    except ValueError:
        raise UsageError(f"partition entries must be integers: {text!r}")
    if not is_partition(parts):
        raise UsageError(f"partition must be weakly decreasing and positive: {text!r}")
    return parts


def _parse_numeric(text):
    """p,q0,z0 with p = 0 (q0, z0 rationals such as 3/2) or a prime p.
    Exponent notation is refused: Fraction would build 1e1000000 in full."""
    try:
        p, q0, z0 = text.split(",")
        if "e" in (q0 + z0).lower():
            raise ValueError("exponent notation is not accepted")
        p = int(p)
        if p == 0:
            from fractions import Fraction

            q0, z0 = Fraction(q0), Fraction(z0)
        else:
            q0, z0 = int(q0), int(z0)
        return NumericPoint(p, q0, z0)
    except ZeroDivisionError:
        raise UsageError(f"bad numeric point {text!r}: zero denominator")
    except (ValueError, CoefficientError) as exc:
        raise UsageError(f"bad numeric point {text!r}: {exc}")


def _spec_from_flags(z_exp, numeric):
    if z_exp is not None and numeric is not None:
        raise UsageError("--z-exp and --numeric are mutually exclusive")
    if z_exp is not None:
        return IntegerExponent(z_exp)
    if numeric is not None:
        return _parse_numeric(numeric)
    return None


def _cell_label(args):
    """The partition of --lambda, when (--f, --lambda) is a cell label at
    --n; a usage error otherwise."""
    lam = _parse_partition(args.lam)
    try:
        return check_label(args.n, args.f, lam)
    except CombinatoricsError as exc:
        raise UsageError(str(exc))


def _config(n, **extra):
    cfg = {"n": n, "tool_version": __version__}
    cfg.update(extra)
    return cfg


def _environment_error(exc):
    sys.stderr.write(f"environment error: {exc}\n")
    return EXIT_ENV


def _emit(args, payload, exit_code=EXIT_OK):
    """Print the report (or write it to --output); returns the exit code."""
    payload["format_version"] = FORMAT_VERSION
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            return _environment_error(exc)
    else:
        sys.stdout.write(text)
        sys.stdout.flush()
    return exit_code


def _relation_pairs(n):
    pairs = []
    for i in range(1, n):
        pairs.append((f"T{i} Tinv{i} = 1", [T(i), Tinv(i)], []))
        pairs.append((f"Tinv{i} T{i} = 1", [Tinv(i), T(i)], []))
    for i in range(1, n - 1):
        pairs.append(
            (
                f"braid T{i} T{i+1} T{i}",
                [T(i), T(i + 1), T(i)],
                [T(i + 1), T(i), T(i + 1)],
            )
        )
    for i in range(1, n):
        for j in range(i + 2, n):
            pairs.append((f"commute T{i} T{j}", [T(i), T(j)], [T(j), T(i)]))
    pairs.append(("commute T1 E1", [T(1), E1], [E1, T(1)]))
    for i in range(3, n):
        pairs.append((f"commute T{i} E1", [T(i), E1], [E1, T(i)]))
    return pairs


def verify_relations(args):
    """Check the defining relations in the regular representation, on the
    generator-action table (loaded from the cache, or built and cached)."""
    n = args.n
    try:
        table = MulTable.load_or_build(n, args.cache_dir)
    except AlgebraError as exc:
        return _environment_error(exc)
    words = table.words
    failures = []
    checked = 0
    for name, left, right in _relation_pairs(n):
        for i, w in enumerate(words):
            x = {i: ONE}
            if table.apply_letters(x, left) != table.apply_letters(x, right):
                failures.append({"relation": name, "word": str(w)})
        checked += 1
    one = {words.index(NormalWord(0, IDENTITY, IDENTITY, IDENTITY)): ONE}
    e1 = words.index(NormalWord(1, IDENTITY, IDENTITY, IDENTITY))
    scalar_checks = [
        ("E1^2 = delta E1", [E1, E1], DELTA),
        ("T1 E1 = q E1", [T(1), E1], Q),
        ("E1 T1 = q E1", [E1, T(1)], Q),
    ]
    if n >= 3:
        scalar_checks += [
            ("E1 T2 E1 = z E1", [E1, T(2), E1], Z),
            ("E1 Tinv2 E1 = z^-1 E1", [E1, Tinv(2), E1], ZINV),
        ]
    for name, letters, c in scalar_checks:
        if table.apply_letters(one, letters) != {e1: c}:
            failures.append({"relation": name, "word": None})
        checked += 1
    payload = {
        "command": "verify-relations",
        "config": _config(n, max_n=5),
        "rank": len(words),
        "expected_rank": brauer_dimension(n),
        "relations_checked": checked,
        "failures": failures,
        "ok": not failures and len(words) == brauer_dimension(n),
    }
    return _emit(args, payload, EXIT_OK if payload["ok"] else EXIT_MATH)


def gram(args):
    """Gram matrix and determinant of a cell module."""
    n, f = args.n, args.f
    lam = _cell_label(args)
    spec = _spec_from_flags(args.z_exp, args.numeric)
    mod = cell_module(n, f, lam)
    g = specialized_gram(mod, spec)
    det = mat_det(g)
    payload = {
        "command": "gram",
        "config": _config(
            n, f=f, **{"lambda": list(lam)}, z_exp=args.z_exp, numeric=args.numeric
        ),
        "basis": [
            {"tableau": str(t), "coset": list(v.word())} for t, v in mod.index
        ],
        "matrix": [[str(c) for c in row] for row in g],
        "determinant": str(det),
        "determinant_is_zero": not det,
    }
    return _emit(args, payload)


def jm_spectrum(args):
    """Eigenvalue spectra and triangularity certificates of the commuting
    family on a cell module."""
    n, f = args.n, args.f
    lam = _cell_label(args)
    mod = cell_module(n, f, lam)
    spectra = {}
    ok = True
    for k in range(1, n + 1):
        cert = mod.check_triangular(k)
        spectra[str(k)] = cert["diagonal"]
        ok = ok and cert["ok"]
    payload = {
        "command": "jm-spectrum",
        "config": _config(n, f=f, **{"lambda": list(lam)}),
        "basis": [ud_str(t) for t in mod.ud],
        "spectra": spectra,
        "triangular_ok": ok,
    }
    return _emit(args, payload, EXIT_OK if ok else EXIT_MATH)


def branching(args):
    """Restriction filtration of a cell module with factor identification."""
    n, f = args.n, args.f
    lam = _cell_label(args)
    r = cell_module(n, f, lam).filtration_check()
    payload = {
        "command": "branching",
        "config": _config(n, f=f, **{"lambda": list(lam)}),
        "report": r,
    }
    return _emit(args, payload, EXIT_OK if r["ok"] else EXIT_MATH)


def scan_cmd(args):
    """Exponents a for which some Gram determinant vanishes at z = q^a."""
    n, seed = args.n, args.seed
    lo = args.a_min if args.a_min is not None else 2 - 2 * n
    hi = args.a_max if args.a_max is not None else n
    if lo > hi:
        raise UsageError(f"empty exponent range: --from {lo} exceeds --to {hi}")
    found = scan_exponents(n, lo, hi, seed=seed)
    predicted = {a for a in bad_exponent_set(n) if lo <= a <= hi}
    payload = {
        "command": "scan",
        "config": _config(n, a_min=lo, a_max=hi, seed=seed),
        "vanishing_exponents": sorted(found),
        "predicted_bad_exponents": sorted(predicted),
        "ok": found == predicted,
    }
    return _emit(args, payload, EXIT_OK if payload["ok"] else EXIT_MATH)


def semisimple_cmd(args):
    """Semisimplicity verdict, by criterion and brute-force determinants."""
    n, numeric = args.n, args.numeric
    spec = _spec_from_flags(args.z_exp, numeric)
    if spec is None:
        payload = {
            "command": "semisimple",
            "config": _config(n, z_exp=None, numeric=None),
            "verdict": "semisimple",
            "detail": "generic parameters: no relation, infinite quantum characteristic",
        }
        return _emit(args, payload)
    if isinstance(spec, IntegerExponent):
        a = spec.a
        predicted = criterion(n, float("inf"), a)
        observed_bad = scan_exponents(n, a, a)
        observed = a not in observed_bad
        payload = {
            "command": "semisimple",
            "config": _config(n, z_exp=a, numeric=None),
            "predicted": predicted,
            "observed": observed,
            "verdict": "semisimple" if observed else "not semisimple",
            "ok": predicted == observed,
        }
        return _emit(args, payload, EXIT_OK if payload["ok"] else EXIT_MATH)
    try:
        report = brute_semisimple(n, spec)
    except SemisimpleError as exc:
        sys.stderr.write(f"mathematical check failed: {exc}\n")
        return EXIT_MATH
    payload = {
        "command": "semisimple",
        "config": _config(n, z_exp=None, numeric=numeric),
        "report": report,
        "ok": report["observed"] == report["predicted"],
    }
    return _emit(args, payload, EXIT_OK if payload["ok"] else EXIT_MATH)


def _parse_letters(text, n):
    letters = []
    for tok in text.replace("*", " ").split():
        if tok == "E1":
            g = E1
        elif tok.startswith("Tinv"):
            g = Tinv(_parse_gen_index(tok[4:]))
        elif tok.startswith("T"):
            g = T(_parse_gen_index(tok[1:]))
        elif tok == "1":
            continue
        else:
            raise UsageError(f"unknown generator {tok!r}")
        try:
            letters.append(check_letter(g, n))
        except AlgebraError as exc:
            raise UsageError(str(exc))
    return letters


def _parse_gen_index(text):
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"bad generator index {text!r}")


def mul_cmd(args):
    """Multiply two products of generators (e.g. "T1 E1" "Tinv2 T1") and
    print the normal form."""
    n = args.n
    a = elt_from_letters(_parse_letters(args.left, n), n)
    b = elt_from_letters(_parse_letters(args.right, n), n)
    prod = algebra_mul(a, b)
    terms = [
        {"f": f, "d1": list(d1), "w": list(w), "d2": list(d2), "coeff": str(c)}
        for f, d1, w, d2, c in prod.display_terms()
    ]
    payload = {
        "command": "mul",
        "config": _config(n, left=args.left, right=args.right),
        "terms": terms,
        "term_count": len(terms),
    }
    return _emit(args, payload)


def basis_count(args):
    """Number of normal words, total and per deficiency."""
    n = args.n
    by_f = {str(f): 0 for f in range(n // 2 + 1)}
    words = all_normal_words(n)
    for w in words:
        by_f[str(w.f)] += 1
    payload = {
        "command": "basis-count",
        "config": _config(n),
        "count": len(words),
        "expected": brauer_dimension(n),
        "by_deficiency": by_f,
        "ok": len(words) == brauer_dimension(n),
    }
    return _emit(args, payload, EXIT_OK if payload["ok"] else EXIT_MATH)


def _int_in(lo, hi=None):
    """argparse type: an integer at least lo, and at most hi when given; its
    ``bounds`` attribute reads like 2<=x<=5."""
    bounds = f"{lo}<=x" + ("" if hi is None else f"<={hi}")

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
        if value < lo or (hi is not None and value > hi):
            raise argparse.ArgumentTypeError(f"{value} is not in the range {bounds}")
        return value

    parse.bounds = bounds
    return parse


def _parser():
    top = _Parser(
        prog="qbrauer",
        description="Exact computations in the two-parameter deformation of "
        "the Brauer algebra.",
        allow_abbrev=False,
    )
    top.add_argument("--cache-dir", default=None, help="override the table cache directory")
    top.add_argument("--output", default=None, help="write the JSON report to a file")
    commands = top.add_subparsers(metavar="COMMAND", dest="command", required=True)

    def command(name, run, n_min, n_max=None):
        doc = " ".join(run.__doc__.split())
        sub = commands.add_parser(name, help=doc, description=doc, allow_abbrev=False)
        sub.set_defaults(run=run, parser=sub)
        rank = _int_in(n_min, n_max)
        sub.add_argument("--n", type=rank, required=True, help=rank.bounds)
        return sub

    def label(sub):
        sub.add_argument("--f", type=int, required=True)
        sub.add_argument("--lambda", dest="lam", required=True)
        return sub

    numeric_help = "numeric point p,q0,z0: p prime, or p=0 and rational q0, z0"

    command("verify-relations", verify_relations, 2, 5)

    z_exp = _int_in(-MAX_Z_EXP, MAX_Z_EXP)
    sub = label(command("gram", gram, 1))
    sub.add_argument("--z-exp", type=z_exp, help=f"specialize z = q^a, {z_exp.bounds}")
    sub.add_argument("--numeric", default=None, help=numeric_help)

    label(command("jm-spectrum", jm_spectrum, 1))
    label(command("branching", branching, 1))

    sub = command("scan", scan_cmd, 2)
    sub.add_argument("--from", dest="a_min", type=z_exp, help=z_exp.bounds)
    sub.add_argument("--to", dest="a_max", type=z_exp, help=z_exp.bounds)
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED, help="default: %(default)s")

    sub = command("semisimple", semisimple_cmd, 2)
    sub.add_argument("--z-exp", type=z_exp, help=f"z = q^a, generic q, {z_exp.bounds}")
    sub.add_argument("--numeric", default=None, help=numeric_help)

    sub = command("mul", mul_cmd, 2)
    sub.add_argument("left", metavar="LEFT")
    sub.add_argument("right", metavar="RIGHT")

    command("basis-count", basis_count, 2, 8)
    return top


def main(argv=None, standalone_mode=True):
    """Run one command on argv (default sys.argv[1:]).  Exits with its exit
    code, or with standalone_mode false returns it, usage errors and help
    included."""
    try:
        args = _parser().parse_args(argv)
        try:
            code = args.run(args)
        except UsageError as exc:
            args.parser.error(str(exc))
    except _Exit as exc:
        code = exc.code
    if standalone_mode:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
