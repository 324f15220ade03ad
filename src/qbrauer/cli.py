"""Command-line front end: reproducible JSON reports for relation checks,
Gram matrices, Jucys-Murphy spectra, branching filtrations, semisimplicity
scans, products, and basis counts."""

import json
from fractions import Fraction

import click

from . import __version__
from .algebra import (
    E1,
    AlgebraError,
    MulTable,
    NormalWord,
    T,
    Tinv,
    all_normal_words,
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
from .combinatorics import IDENTITY, brauer_dimension, labels
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


def _parse_partition(text):
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise click.UsageError(
            f"partition must be a bracketed comma list like [3,1,1], got {text!r}"
        )
    inner = text[1:-1].strip()
    if not inner:
        return ()
    try:
        parts = tuple(int(p) for p in inner.split(","))
    except ValueError:
        raise click.UsageError(f"partition entries must be integers: {text!r}")
    if any(p <= 0 for p in parts) or list(parts) != sorted(parts, reverse=True):
        raise click.UsageError(
            f"partition must be weakly decreasing and positive: {text!r}"
        )
    return parts


def _parse_numeric(text):
    """p,q0,z0 with p = 0 (q0, z0 rationals such as 3/2) or a prime p.
    Exponent notation is refused: Fraction would build 1e1000000 in full."""
    try:
        p, q0, z0 = text.split(",")
        if "e" in (q0 + z0).lower():
            raise ValueError("exponent notation is not accepted")
        p = int(p)
        value = Fraction if p == 0 else int
        return NumericPoint(p, value(q0), value(z0))
    except ZeroDivisionError:
        raise click.UsageError(f"bad numeric point {text!r}: zero denominator")
    except (ValueError, CoefficientError) as exc:
        raise click.UsageError(f"bad numeric point {text!r}: {exc}")


def _spec_from_flags(z_exp, numeric):
    if z_exp is not None and numeric is not None:
        raise click.UsageError("--z-exp and --numeric are mutually exclusive")
    if z_exp is not None:
        return IntegerExponent(z_exp)
    if numeric is not None:
        return _parse_numeric(numeric)
    return None


def _check_label_usage(n, f, lam):
    if (f, tuple(lam)) not in labels(n):
        raise click.UsageError(
            f"(f={f}, lambda={list(lam)}) is not a cell label at n={n}"
        )


def _config(n, **extra):
    cfg = {"n": n, "tool_version": __version__}
    cfg.update(extra)
    return cfg


def _emit(ctx, payload, exit_code=EXIT_OK):
    payload["format_version"] = FORMAT_VERSION
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    output = ctx.obj.get("output") if ctx.obj else None
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            click.echo(f"environment error: {exc}", err=True)
            ctx.exit(EXIT_ENV)
    else:
        click.echo(text, nl=False)
    ctx.exit(exit_code)


@click.group()
@click.option("--cache-dir", default=None, help="override the table cache directory")
@click.option("--output", default=None, help="write the JSON report to a file")
@click.pass_context
def main(ctx, cache_dir, output):
    """Exact computations in the two-parameter deformation of the Brauer
    algebra."""
    ctx.ensure_object(dict)
    ctx.obj["output"] = output
    ctx.obj["cache_dir"] = cache_dir


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


@main.command("verify-relations")
@click.option("--n", "n", type=click.IntRange(min=2, max=5), required=True)
@click.pass_context
def verify_relations(ctx, n):
    """Check the defining relations in the regular representation, on the
    generator-action table (loaded from the cache, or built and cached)."""
    try:
        table = MulTable.load_or_build(n, ctx.obj["cache_dir"])
    except AlgebraError as exc:
        click.echo(f"environment error: {exc}", err=True)
        ctx.exit(EXIT_ENV)
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
    _emit(ctx, payload, EXIT_OK if payload["ok"] else EXIT_MATH)


@main.command("gram")
@click.option("--n", "n", type=click.IntRange(min=1), required=True)
@click.option("--f", "f", type=int, required=True)
@click.option("--lambda", "lam", required=True)
@click.option("--z-exp", type=int, default=None, help="specialize z = q^a")
@click.option(
    "--numeric",
    default=None,
    help="numeric point p,q0,z0: p prime, or p=0 and rational q0, z0",
)
@click.pass_context
def gram(ctx, n, f, lam, z_exp, numeric):
    """Gram matrix and determinant of a cell module."""
    lam = _parse_partition(lam)
    _check_label_usage(n, f, lam)
    spec = _spec_from_flags(z_exp, numeric)
    mod = cell_module(n, f, lam)
    g = specialized_gram(mod, spec)
    det = mat_det(g)
    payload = {
        "command": "gram",
        "config": _config(n, f=f, **{"lambda": list(lam)}, z_exp=z_exp, numeric=numeric),
        "basis": [
            {"tableau": str(t), "coset": list(v.word())} for t, v in mod.index
        ],
        "matrix": [[str(c) for c in row] for row in g],
        "determinant": str(det),
        "determinant_is_zero": not det,
    }
    _emit(ctx, payload)


@main.command("jm-spectrum")
@click.option("--n", "n", type=click.IntRange(min=1), required=True)
@click.option("--f", "f", type=int, required=True)
@click.option("--lambda", "lam", required=True)
@click.pass_context
def jm_spectrum(ctx, n, f, lam):
    """Eigenvalue spectra and triangularity certificates of the commuting
    family on a cell module."""
    lam = _parse_partition(lam)
    _check_label_usage(n, f, lam)
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
        "basis": [str(t) for t in mod.ud],
        "spectra": spectra,
        "triangular_ok": ok,
    }
    _emit(ctx, payload, EXIT_OK if ok else EXIT_MATH)


@main.command("branching")
@click.option("--n", "n", type=click.IntRange(min=1), required=True)
@click.option("--f", "f", type=int, required=True)
@click.option("--lambda", "lam", required=True)
@click.pass_context
def branching(ctx, n, f, lam):
    """Restriction filtration of a cell module with factor identification."""
    lam = _parse_partition(lam)
    _check_label_usage(n, f, lam)
    r = cell_module(n, f, lam).filtration_check()
    payload = {
        "command": "branching",
        "config": _config(n, f=f, **{"lambda": list(lam)}),
        "report": r,
    }
    _emit(ctx, payload, EXIT_OK if r["ok"] else EXIT_MATH)


@main.command("scan")
@click.option("--n", "n", type=click.IntRange(min=2), required=True)
@click.option("--from", "a_min", type=int, default=None)
@click.option("--to", "a_max", type=int, default=None)
@click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True)
@click.pass_context
def scan_cmd(ctx, n, a_min, a_max, seed):
    """Exponents a for which some Gram determinant vanishes at z = q^a."""
    lo = a_min if a_min is not None else 2 - 2 * n
    hi = a_max if a_max is not None else n
    if lo > hi:
        raise click.UsageError(f"empty exponent range: --from {lo} exceeds --to {hi}")
    found = scan_exponents(n, lo, hi, seed=seed)
    predicted = {a for a in bad_exponent_set(n) if lo <= a <= hi}
    payload = {
        "command": "scan",
        "config": _config(n, a_min=lo, a_max=hi, seed=seed),
        "vanishing_exponents": sorted(found),
        "predicted_bad_exponents": sorted(predicted),
        "ok": found == predicted,
    }
    _emit(ctx, payload, EXIT_OK if payload["ok"] else EXIT_MATH)


@main.command("semisimple")
@click.option("--n", "n", type=click.IntRange(min=2), required=True)
@click.option("--z-exp", type=int, default=None, help="relation z = q^a, generic q")
@click.option(
    "--numeric",
    default=None,
    help="numeric point p,q0,z0: p prime, or p=0 and rational q0, z0",
)
@click.pass_context
def semisimple_cmd(ctx, n, z_exp, numeric):
    """Semisimplicity verdict, by criterion and brute-force determinants."""
    spec = _spec_from_flags(z_exp, numeric)
    if spec is None:
        payload = {
            "command": "semisimple",
            "config": _config(n, z_exp=None, numeric=None),
            "verdict": "semisimple",
            "detail": "generic parameters: no relation, infinite quantum characteristic",
        }
        _emit(ctx, payload)
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
        _emit(ctx, payload, EXIT_OK if payload["ok"] else EXIT_MATH)
    try:
        report = brute_semisimple(n, spec)
    except SemisimpleError as exc:
        click.echo(f"mathematical check failed: {exc}", err=True)
        ctx.exit(EXIT_MATH)
    payload = {
        "command": "semisimple",
        "config": _config(n, z_exp=None, numeric=numeric),
        "report": report,
        "ok": report["observed"] == report["predicted"],
    }
    _emit(ctx, payload, EXIT_OK if payload["ok"] else EXIT_MATH)


def _parse_letters(text, n):
    letters = []
    for tok in text.replace("*", " ").split():
        if tok == "E1":
            letters.append(E1)
        elif tok.startswith("Tinv"):
            letters.append(Tinv(_parse_gen_index(tok[4:], n)))
        elif tok.startswith("T"):
            letters.append(T(_parse_gen_index(tok[1:], n)))
        elif tok == "1":
            continue
        else:
            raise click.UsageError(f"unknown generator {tok!r}")
    return letters


def _parse_gen_index(text, n):
    try:
        i = int(text)
    except ValueError:
        raise click.UsageError(f"bad generator index {text!r}")
    if not 1 <= i <= n - 1:
        raise click.UsageError(f"generator index {i} out of range for n={n}")
    return i


@main.command("mul")
@click.option("--n", "n", type=click.IntRange(min=2), required=True)
@click.argument("left")
@click.argument("right")
@click.pass_context
def mul_cmd(ctx, n, left, right):
    """Multiply two products of generators (e.g. "T1 E1" "Tinv2 T1") and
    print the normal form."""
    a = elt_from_letters(_parse_letters(left, n), n)
    b = elt_from_letters(_parse_letters(right, n), n)
    prod = algebra_mul(a, b)
    terms = [
        {"f": f, "d1": list(d1), "w": list(w), "d2": list(d2), "coeff": str(c)}
        for f, d1, w, d2, c in prod.display_terms()
    ]
    payload = {
        "command": "mul",
        "config": _config(n, left=left, right=right),
        "terms": terms,
        "term_count": len(terms),
    }
    _emit(ctx, payload)


@main.command("basis-count")
@click.option("--n", "n", type=click.IntRange(min=2, max=8), required=True)
@click.pass_context
def basis_count(ctx, n):
    """Number of normal words, total and per deficiency."""
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
    _emit(ctx, payload, EXIT_OK if payload["ok"] else EXIT_MATH)


if __name__ == "__main__":
    main()
