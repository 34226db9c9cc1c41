"""Command-line front end.

Subcommands mirror the library workflows: ``orbit`` prints the closed
sequence, ``synth`` writes circuit files with permutation certificates,
``run`` emits a histogram CSV, ``factor`` hunts for a factor pair, and
``study`` sweeps truncation levels into CSV/JSON tables.

Exit codes: 0 success (including a factor found), 2 validation error,
3 no factors within the retry cap. All randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Iterable, Optional, Sequence

from . import circuit as circuit_mod
from . import qasm
from .circuit import MAX_WIDTH
from .experiments import resolution_study, study_csv, study_json, tries_until_factor
from .modmath import FactoringInstance, NotCoprimeError, build_orbit
from .shor import exact_distribution, histogram_chunks, histogram_outcomes, sample, work_images
from .synth import ProtectedCollisionError, check_trnc_lv, synth_all_powers, synth_powers, truncate

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_FACTORS = 3

# A study's peak RSS grows by about 247 bytes per iteration (its seed's stream) and 201 per iteration
# and cell, a width and a level below r < N (tries and their JSON text): scripts/study_budget.py.
_STUDY_BYTES_PER_IT, _STUDY_BYTES_PER_CELL_IT = 250, 205
STUDY_BUDGET = 1 << 30  # bytes


def _write_atomic(path: Path, chunks: Iterable[str]) -> None:
    """Write chunks to a unique temp file beside path, give it a plain create's mode, rename it.

    An OSError names path, not the temp file, whose name is random.
    """
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.writelines(chunks)
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as e:
        raise OSError(e.errno, e.strerror, str(path)) from e


def _check_parent(*paths: Path) -> None:
    """Raise now the OSError ``_write_atomic`` would raise for each path: for its directory, or
    EISDIR for a directory at it (its rename would replace a link to one, not fail)."""
    for path in paths:
        try:
            tempfile.TemporaryFile(dir=path.parent).close()
            if path.is_dir() and not path.is_symlink():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        except OSError as e:
            raise OSError(e.errno, e.strerror, str(path)) from e


def _emit(args: argparse.Namespace, event: dict, text: str) -> None:
    if args.quiet:
        print(json.dumps(event))
    else:
        print(text)


def _parse_int(token: str, option: str, spec: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"{option} takes integers, got {spec!r}") from None


def _parse_range(spec: str, option: str = "range") -> range:
    """'lo:hi' inclusive, or a single integer; a bad token names the option."""
    if ":" in spec:
        lo, hi = (_parse_int(tok, option, spec) for tok in spec.split(":", 1))
        if hi < lo:
            raise ValueError(f"empty range {spec!r}")
    else:
        lo = hi = _parse_int(spec, option, spec)
    return range(lo, hi + 1)


def _parse_powers(spec: str) -> list[int]:
    """Powers of two inside an inclusive 'lo:hi' range, or one explicit power."""
    values = _parse_range(spec, "--powers")
    if ":" not in spec:
        p = values[0]
        if p < 1 or p & (p - 1):
            raise ValueError(f"power must be a positive power of two, got {p}")
        return [p]
    lo, hi = values[0], values[-1]
    powers = []
    p = 1
    while p <= hi:
        if p >= lo:
            powers.append(p)
        p <<= 1
    if not powers:
        raise ValueError(f"no powers of two in range {spec!r}")
    return powers


def _parse_widths(spec: str) -> list[int]:
    """Comma list of distinct control widths for ``study --m``."""
    widths = [_parse_int(tok, "--m", spec) for tok in spec.split(",") if tok]
    if not widths:
        raise ValueError(f"--m needs at least one control width, got {spec!r}")
    if len(set(widths)) != len(widths):
        raise ValueError(f"--m lists a control width twice: {spec!r}")
    return widths


def _at_least(option: str, value: int, low: int) -> None:
    if value < low:
        raise ValueError(f"{option} must be >= {low}, got {value}")


def _within_width(instance: FactoringInstance) -> FactoringInstance:
    """The instance, if its work register fits MAX_WIDTH bits; checked before any orbit is built."""
    if instance.n > MAX_WIDTH:
        raise ValueError(f"--N must be < 2^{MAX_WIDTH}, got {instance.N}")
    return instance


def _report_common_factor(args: argparse.Namespace, e: NotCoprimeError, **extra) -> int:
    _emit(
        args,
        {"event": "factor", "N": args.N, "a": args.a, "factors": [e.common, args.N // e.common], **extra},
        f"gcd({args.a}, {args.N}) = {e.common}: factors {e.common} x {args.N // e.common}",
    )
    return EXIT_OK


def cmd_orbit(args: argparse.Namespace) -> int:
    try:
        instance = _within_width(FactoringInstance(N=args.N, a=args.a, m=1))
    except NotCoprimeError as e:
        return _report_common_factor(args, e)
    orbit = build_orbit(instance)
    _emit(
        args,
        {"event": "orbit", "N": args.N, "a": args.a, "r": orbit.r, "states": list(orbit.states)},
        "\n".join([f"N = {args.N}, a = {args.a}, n = {instance.n}", f"r = {orbit.r}",
                   f"closed sequence: {list(orbit.states) + [1]}", "x    f(x)"]
                  + [f"{x:<4d} {state}" for x, state in enumerate(orbit.states)]),
    )
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    orbit = build_orbit(_within_width(FactoringInstance(N=args.N, a=args.a, m=1)))
    powers = _parse_powers(args.powers)
    check_trnc_lv(args.trnc_lv, orbit.r)
    out_dir = Path(args.out)
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]  # removed if synthesis fails
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        circuits = truncate(synth_powers(orbit, powers), args.trnc_lv)
    except ProtectedCollisionError:
        for d in made:
            d.rmdir()
        raise
    certs: dict[int, str] = {}  # by circuit identity: congruent powers share one circuit
    for p, shared in zip(powers, circuits):
        stem = f"me_N{args.N}_a{args.a}_p{p}_trnc{args.trnc_lv}"
        if args.format == "json":  # the file records its power; QASM text has none
            path = out_dir / f"{stem}.json"
            _write_atomic(path, [circuit_mod.to_json(dataclasses.replace(shared, power=p), indent=2) + "\n"])
        else:
            path = out_dir / f"{stem}.qasm"
            _write_atomic(path, [qasm.to_qasm3(shared)])
        if id(shared) not in certs:  # the text of json.dumps(table, indent=2); its lists are never empty
            table = circuit_mod.permutation_table(shared, orbit.states)
            certs[id(shared)] = "{\n" + ",\n".join(f'  "{key}": [\n    ' + ",\n    ".join(map(str, values))
                                                   + "\n  ]" for key, values in table.items()) + "\n}\n"
        cert_path = out_dir / f"{stem}_cert.json"
        _write_atomic(cert_path, [certs[id(shared)]])
        _emit(
            args,
            {"event": "synth", "power": p, "file": str(path), "gates": shared.gate_count()},
            f"U^{p}: {shared.gate_count()} gates -> {path} (+ {cert_path.name})",
        )
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    _at_least("--shots", args.shots, 0)
    if args.shots >= 1 << 63:  # the multinomial counts are int64
        raise ValueError(f"--shots must be < 2^63, got {args.shots}")
    if args.shots and args.seed is None:
        raise ValueError("--seed is required when --shots > 0")
    if args.seed is not None:
        _at_least("--seed", args.seed, 0)
    instance = _within_width(FactoringInstance(N=args.N, a=args.a, m=args.m))
    if args.out:
        _check_parent(Path(args.out))
    orbit = build_orbit(instance)
    check_trnc_lv(args.trnc_lv, orbit.r)
    circuits = truncate(synth_all_powers(orbit, args.m), args.trnc_lv)
    dist = exact_distribution(instance, work_images(circuits, instance.M))
    counts = sample(dist, args.shots, args.seed) if args.shots else None
    chunks = histogram_chunks(orbit, dist, counts)
    if args.out:
        _write_atomic(Path(args.out), chunks)
        rows = len(histogram_outcomes(dist, counts))
        _emit(args, {"event": "run", "out": args.out, "rows": rows},
              f"histogram ({rows} rows) -> {args.out}")
    else:
        sys.stdout.writelines(chunks)
    return EXIT_OK


def cmd_factor(args: argparse.Namespace) -> int:
    try:
        instance = _within_width(FactoringInstance(N=args.N, a=args.a, m=args.m))
    except NotCoprimeError as e:
        return _report_common_factor(args, e, tries=0)
    _at_least("--max-tries", args.max_tries, 1)
    _at_least("--seed", args.seed, 0)
    orbit = build_orbit(instance)
    check_trnc_lv(args.trnc_lv, orbit.r)
    circuits = truncate(synth_all_powers(orbit, args.m), args.trnc_lv)
    dist = exact_distribution(instance, work_images(circuits, instance.M))
    outcome = tries_until_factor(orbit, dist, seed=args.seed, max_tries=args.max_tries)
    if outcome.capped:
        _emit(
            args,
            {"event": "factor", "N": args.N, "a": args.a, "factors": None, "tries": outcome.tries},
            f"no factors within {args.max_tries} tries",
        )
        return EXIT_NO_FACTORS
    f1, f2 = outcome.factors
    _emit(
        args,
        {
            "event": "factor",
            "N": args.N,
            "a": args.a,
            "factors": [f1, f2],
            "tries": outcome.tries,
            "l_measured": outcome.l,
        },
        f"{args.N} = {f1} x {f2} (l = {outcome.l}, tries = {outcome.tries})",
    )
    return EXIT_OK


def cmd_study(args: argparse.Namespace) -> int:
    out_path = Path(args.out)
    json_path = out_path.with_suffix(".json")
    if json_path == out_path:
        raise ValueError(f"--out {args.out} ends in .json, so the CSV and its .json mirror "
                         "would be one file")
    m_values = _parse_widths(args.m)
    instance = _within_width(FactoringInstance(N=args.N, a=args.a, m=max(m_values)))
    trnc_levels = _parse_range(args.trnc, "--trnc")
    _at_least("--num-it", args.num_it, 1)
    num_cells = len(m_values) * len(range(max(trnc_levels.start, 0), min(trnc_levels.stop, args.N)))
    if (need := args.num_it * (_STUDY_BYTES_PER_IT + _STUDY_BYTES_PER_CELL_IT * num_cells)) > STUDY_BUDGET:
        raise ValueError(f"--num-it {args.num_it} needs {need:,} bytes; the study budget is {STUDY_BUDGET:,}")
    _at_least("--max-tries", args.max_tries, 1)
    _check_parent(out_path, json_path)
    cells = resolution_study(
        instance,
        m_values,
        trnc_levels,
        num_it=args.num_it,
        base_seed=args.seed,
        max_tries=args.max_tries,
    )
    results = list(cells.values())
    _write_atomic(out_path, [study_csv(results)])
    _write_atomic(json_path, [study_json(results) + "\n"])
    for (m, t), res in cells.items():
        _emit(
            args,
            {
                "event": "study-row",
                "m": m,
                "trnc_lv": t,
                "mean_tries": res.mean,
                "capped_fraction": res.capped_fraction,
            },
            f"m={m} trnc_lv={t}: mean tries {res.mean:.2f} (capped {res.capped_fraction:.2%})",
        )
    _emit(
        args,
        {"event": "study", "csv": str(out_path), "json": str(json_path)},
        f"study -> {out_path} and {json_path}",
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="truncshor",
        description="Synthesize truncated modular-exponentiation operators and run Shor factoring studies.",
    )
    parser.add_argument("--quiet", action="store_true", help="emit JSON-lines records instead of prose")
    common = argparse.ArgumentParser(add_help=False)  # what every subcommand takes
    # --quiet is accepted on either side of the subcommand; SUPPRESS keeps the
    # subparser from clobbering a --quiet given before it
    common.add_argument(
        "--quiet", action="store_true", default=argparse.SUPPRESS,
        help="emit JSON-lines records instead of prose",
    )
    common.add_argument("--N", type=int, required=True)
    common.add_argument("--a", type=int, required=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p_orbit = sub.add_parser(
        "orbit", parents=[common], help="print f(x) = a^x mod N and its period"
    )
    p_orbit.set_defaults(func=cmd_orbit)

    p_synth = sub.add_parser("synth", parents=[common], help="synthesize U^p circuits to files")
    p_synth.add_argument("--powers", required=True, help="power of two or inclusive range lo:hi")
    p_synth.add_argument("--trnc-lv", type=int, default=0)
    p_synth.add_argument("--format", choices=("json", "qasm3"), default="json")
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.set_defaults(func=cmd_synth)

    p_run = sub.add_parser("run", parents=[common], help="exact (and optionally sampled) phase histogram CSV")
    p_run.add_argument("--m", type=int, required=True)
    p_run.add_argument("--trnc-lv", type=int, default=0)
    p_run.add_argument("--shots", type=int, default=0)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--out")
    p_run.set_defaults(func=cmd_run)

    p_factor = sub.add_parser("factor", parents=[common], help="draw measurements until a factor pair appears")
    p_factor.add_argument("--m", type=int, required=True)
    p_factor.add_argument("--trnc-lv", type=int, default=0)
    p_factor.add_argument("--seed", type=int, required=True)
    p_factor.add_argument("--max-tries", type=int, default=500)
    p_factor.set_defaults(func=cmd_factor)

    p_study = sub.add_parser("study", parents=[common], help="tries-vs-truncation sweep to CSV/JSON")
    p_study.add_argument("--m", required=True, help="comma list of control widths, e.g. 8,10")
    p_study.add_argument("--trnc", required=True, help="inclusive truncation range lo:hi")
    p_study.add_argument("--num-it", type=int, default=150)
    p_study.add_argument("--seed", type=int, required=True)
    p_study.add_argument("--max-tries", type=int, default=500)
    p_study.add_argument("--out", required=True, help="CSV path; a .json mirror is written beside it")
    p_study.set_defaults(func=cmd_study)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ProtectedCollisionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
