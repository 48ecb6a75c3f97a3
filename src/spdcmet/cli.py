"""Command-line interface.

Subcommands: fringes, fisher, calibrate, herald, count, curve.  Every
output embeds a metadata block (parameters, seed, truncation, package
version) and contains no timestamps, so identical invocations produce
byte-identical files.  One writer, ``_render``, lays out the rows of
every table, CSV or JSON, from '%' row templates over column arrays.  Exit
codes: 0 success, 2 usage or invalid configuration, 3 data or model error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__, calibration, engine, estimation, heralding, timetags
from .fock import SourceParams, truncation_tail

USAGE_ERROR = 2
DATA_ERROR = 3
_CHUNK_ROWS = 4096  # table rows rendered per piece of output text


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _frame(meta, columns, fmt, extra_sections=None):
    """The text before and after the rows of a table plus metadata, as CSV
    ('#' header) or JSON."""
    if fmt == "json":
        doc = {"meta": meta, "columns": list(columns), "rows": []}
        if extra_sections:
            doc.update(extra_sections)
        text = json.dumps(doc, indent=2, sort_keys=True)
        # layout newlines are the only raw ones, and only a top-level key
        # sits two spaces in
        head, tail = text.split('\n  "rows": []', 1)
        return head + '\n  "rows": ', tail + "\n"
    lines = [f"# {k} = {_fmt(v)}" for k, v in meta.items()]
    if extra_sections:
        for name, payload in extra_sections.items():
            lines.append(f"# {name}: {json.dumps(payload, sort_keys=True)}")
    lines.append(",".join(columns))
    return "\n".join(lines) + "\n", ""


def _render(meta, columns, parts, fmt, extra_sections=None):
    """Text pieces of a table plus metadata as CSV ('#' header) or JSON, the
    latter byte for byte ``json.dumps(doc, indent=2, sort_keys=True)``.

    ``parts`` are ``(cells, arrays)`` pairs, each a run of rows: ``cells``
    are a row's '%' templates as JSON writes them ('%r' for a float, '%d'
    for an int, quoted literals such as '"mask"' or '"%#06x"') and
    ``arrays`` hold a column per conversion.  CSV unquotes the cells and
    writes '%r' as '%.12g', as ``_fmt`` does.  Float cells are finite, so
    that '%r' writes the float as JSON does.  Each ``_CHUNK_ROWS`` rows of a
    part are one '%' call on the repeated row template, over its columns
    stacked to one dtype: int and float columns stack as float64, exact
    below 2**53."""
    head, tail = _frame(meta, columns, fmt, extra_sections)
    if fmt == "json":
        opening, sep, close = "[\n    ", ",\n    ", "\n  ]"
    else:
        opening = sep = close = ""
    yield head
    lead = None  # text before the next chunk; None until a row is written
    for cells, arrays in parts:
        if fmt == "json":
            row = "[\n      " + ",\n      ".join(cells) + "\n    ]"
        else:
            row = ",".join(c.strip('"') for c in cells).replace("%r", "%.12g") + "\n"
        for i in range(0, len(arrays[0]), _CHUNK_ROWS):
            values = np.stack([a[i:i + _CHUNK_ROWS] for a in arrays], axis=1)
            yield ((opening if lead is None else lead)
                   + sep.join([row] * len(values)) % tuple(values.ravel().tolist()))
            lead = sep
    yield ("[]" if fmt == "json" and lead is None else close) + tail


def _emit(args, meta, columns, parts, extra=None):
    """Write a command's table, its meta led by the command and package
    version, to ``--out`` or stdout as it is rendered; exit code 0."""
    pieces = _render({"command": args.command, "version": __version__, **meta},
                     columns, parts, args.format, extra)
    if args.out is None or args.out == "-":
        sys.stdout.writelines(pieces)
    else:
        with open(args.out, "w") as fh:
            fh.writelines(pieces)
    return 0


def _add_model_args(sp, paths=True):
    """The source and detector options; without ``paths``, only those that
    do not name a path (gain, detectors per mode, tail bound)."""
    sp.add_argument("--tau", type=float, default=0.061, help="parametric gain")
    if paths:
        sp.add_argument("--eta-a", type=float, default=0.23, help="sensing-path transmission")
        sp.add_argument("--eta-b", type=float, default=0.12, help="reference-path transmission")
    sp.add_argument("--d", type=int, default=4,
                    help="detectors per mode; 0 means number-resolving counters")
    if paths:
        sp.add_argument("--theta", type=float, default=0.0,
                        help="reference-path control rotation, radians")
    sp.add_argument("--eps", type=float, default=1e-12, help="truncation tail bound")


def _add_grid_args(sp):
    sp.add_argument("--phi-start", type=float, default=0.0)
    sp.add_argument("--phi-stop", type=float, default=2.0 * math.pi)
    sp.add_argument("--phi-steps", type=int, default=100)


def _add_io_args(sp):
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")


def _source(args) -> SourceParams:
    return SourceParams(tau=args.tau, trunc_epsilon=args.eps)


def _detector(args, src):
    d = None if args.d == 0 else args.d
    return engine.detector_for_source(src, d, args.eta_a, args.eta_b)


def _truncation_meta(src):
    """The cutoff, its bound and the pair-sector mass it actually discards."""
    n_max = engine.choose_truncation(src)
    return {"trunc_epsilon": src.trunc_epsilon, "truncation": n_max,
            "truncation_tail": truncation_tail(src, n_max)}


def _base_meta(args, src):
    return {
        "tau": args.tau,
        "eta_a": args.eta_a,
        "eta_b": args.eta_b,
        "d": args.d,
        "theta": args.theta,
        **_truncation_meta(src),
        "seed": args.seed,
    }


def _phi_grid(args):
    """The phases of ``fringes`` and ``fisher``, once they and ``--theta``
    are found finite."""
    if args.phi_steps < 1:
        raise ValueError("phi-steps must be >= 1")
    if not math.isfinite(args.theta):
        raise ValueError(f"--theta must be finite, got {args.theta}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing step is refused below
        grid = np.linspace(args.phi_start, args.phi_stop, args.phi_steps, endpoint=False)
    if not np.isfinite(grid).all():
        raise ValueError(f"the phase grid from --phi-start {args.phi_start} to "
                         f"--phi-stop {args.phi_stop} must be finite")
    return grid


def _pattern_label(pattern):
    return "p" + "".join(str(v) for v in pattern)


# ---------------------------------------------------------------------------
# subcommands


def cmd_fringes(args) -> int:
    grid = _phi_grid(args)
    src = _source(args)
    det = _detector(args, src)
    family = engine.fourfold_family(src, det, theta=args.theta)
    columns = ["phi"] + [_pattern_label(p) for p in family.patterns]
    return _emit(args, _base_meta(args, src), columns,
                 [(("%r",) * len(columns), [grid, *family.probabilities(grid).T])])


def cmd_fisher(args) -> int:
    if args.bootstrap != 0 and not 0.0 < args.counts_per_phase < math.inf:
        raise ValueError(f"--counts-per-phase must be finite and positive, "
                         f"got {args.counts_per_phase}")
    grid = _phi_grid(args)
    src = _source(args)
    det = _detector(args, src)
    family = engine.fourfold_family(src, det, theta=args.theta)

    central, clipped = estimation.fisher_curve(family, grid)
    snl = estimation.snl_fisher(src, det)

    # best information over a finer scan for the advantage summary
    phi_star, i_star = estimation.argmax_over_phase(
        lambda p: estimation.fisher_information(family, p), 512, family.scan_block)
    advantage = i_star / snl - 1.0

    ml_points = []
    if args.ml_reps != 0:
        phis = [args.phi_start + f * (args.phi_stop - args.phi_start) for f in (0.2, 0.45, 0.7)]
        # p(phi) = p(2 theta - phi): keep the mirror estimate out of the window
        gaps = [abs(math.remainder(2.0 * (phi - args.theta), 2.0 * math.pi)) for phi in phis]
        results = estimation.monte_carlo_ml_fisher(
            family, phis, repetitions=args.ml_reps, sample_size=args.ml_samples,
            seed=[args.seed + 1000 + j for j in range(len(phis))],
            search_halfwidth=[min(math.pi / 4.0, gap / 2.0) for gap in gaps])
        ml_points = [{"phi": float(phi), "i_ml": res.i_ml, "stderr": res.stderr,
                      "edge_hits": res.edge_hits} for phi, res in zip(phis, results)]

    band_low = band_high = None
    patched_rows = band_misses = 0
    if args.bootstrap != 0:
        counts = family.probabilities(grid) * args.counts_per_phase
        band = estimation.bootstrap_fisher_band(grid, counts, replicates=args.bootstrap,
                                                seed=args.seed)
        band_low, band_high, patched_rows = band.low, band.high, band.patched_rows
        band_misses = int(np.sum((central < band_low) | (central > band_high)))

    columns = ["phi", "fisher", "clipped"]
    cells, arrays = ["%r", "%r", "%d"], [grid, central, clipped]
    if band_low is not None:
        columns += ["band_low", "band_high"]
        cells, arrays = cells + ["%r", "%r"], arrays + [band_low, band_high]
    meta = _base_meta(args, src)
    meta.update({
        "snl": snl,
        "fisher_max": i_star,
        "advantage": advantage,
        "advantage_phi": phi_star,
        # loss-free reference at the same gain; constant in phi, unlike the
        # click-pattern curve, which vanishes at fringe extrema for any basis
        "ideal_information": engine.ideal_fisher_information(src, phi_star),
        "bootstrap": args.bootstrap,
        "bootstrap_patched_rows": patched_rows,
        "band_misses": band_misses,
        "ml_reps": args.ml_reps,
        "ml_samples": args.ml_samples,
    })
    extra = {"ml_points": ml_points} if ml_points else None
    return _emit(args, meta, columns, [(cells, arrays)], extra)


def _parse_rates_csv(text):
    """Rates CSV: either 'singles_a,singles_b,twofold' rows or phi-tagged
    'phi,singles_a,singles_b,twofold' rows; rows are averaged."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if parts and not _is_number(parts[0]):
            continue  # header row
        if len(parts) not in (3, 4):
            raise timetags.ParseError(
                f"line {lineno}: expected 3 or 4 numeric fields, got {len(parts)}"
            )
        try:
            vals = [float(p) for p in parts]
        except ValueError:
            raise timetags.ParseError(f"line {lineno}: non-numeric field in {raw!r}") from None
        rows.append(vals[-3:])
    if not rows:
        raise timetags.ParseError("no rate rows found")
    avg = np.mean(np.array(rows, dtype=float), axis=0)
    return calibration.RateSummary(
        singles_a=float(avg[0]), singles_b=float(avg[1]), twofold=float(avg[2])
    )


def _is_number(s):
    try:
        float(s)
        return True
    except ValueError:
        return False


def cmd_calibrate(args) -> int:
    with open(args.rates) as fh:
        rates = _parse_rates_csv(fh.read())
    result = calibration.efficiencies_from_rates(rates)
    meta = {
        "rates_file": args.rates,
        "singles_a": rates.singles_a,
        "singles_b": rates.singles_b,
        "twofold": rates.twofold,
    }
    columns = ["tau", "eta_a", "eta_b", "pair_probability",
               "residual_singles_a", "residual_singles_b", "residual_twofold"]
    row = [result.tau, result.eta_a, result.eta_b, result.pair_probability, *result.residuals]
    return _emit(args, meta, columns, [(("%r",) * len(row), [[v] for v in row])])


def cmd_herald(args) -> int:
    etas = [float(s) for s in args.etas.split(",") if s.strip()]
    if not etas:
        raise ValueError(f"--etas names no transmission: {args.etas!r}")
    if args.k_max < 0:
        raise heralding.HeraldError(f"k-max must be a nonnegative herald count, got {args.k_max}")
    table = heralding.herald_table(args.tau, etas, range(args.k_max + 1))
    meta = {
        "tau": args.tau,
        "truncation": table.truncation,
        "truncation_tail": truncation_tail(SourceParams(args.tau), table.truncation),
        "etas": args.etas,
    }
    columns = ["k"] + [f"eta={_fmt(e)}" for e in etas]
    return _emit(args, meta, columns,
                 [(("%d",) + ("%r",) * len(etas), [table.k_values, *table.values.T])])


def cmd_count(args) -> int:
    if args.rep_period < 0:
        raise ValueError(f"--rep-period must be >= 0 (0 anchors windows on first clicks), "
                         f"got {args.rep_period}")
    if args.n_windows is not None and args.n_windows < 0:
        raise ValueError(f"--n-windows must be >= 0, got {args.n_windows}")
    if args.rep_period == 0 and args.n_windows is not None:
        raise ValueError("--n-windows counts pulses and needs a pulse clock (--rep-period > 0)")
    rep = args.rep_period if args.rep_period > 0 else None
    timetags.check_window(args.window, rep)
    records = timetags.TimetagFile(args.timetags, args.input_format)
    if args.map:
        with open(args.map) as fh:
            cmap = timetags.ChannelMap.from_text(fh.read())
    else:
        cmap = timetags.ChannelMap.default()
    result = timetags.count_coincidences(
        records, window_ps=args.window, cmap=cmap, rep_period_ps=rep,
        n_windows=args.n_windows,
    )
    hist = result.histogram
    meta = {
        "records": len(records),
        "window_ps": args.window,
        "rep_period_ps": args.rep_period,
        "windows": hist.windows,
        "total_clicks": hist.total_clicks(),
        "late_clicks": result.late_clicks,
        "reordered": result.reordered,
    }
    return _emit(args, meta, ["kind", "key", "count"], _count_parts(hist, result.pattern_counts))


def _count_parts(hist, pattern_counts):
    """``count``'s rows: a mask row per pattern of ``hist``, in mask order,
    then a pattern row per per-mode click-count tuple, in tuple order."""
    patterns = np.array([(*key, n) for key, n in sorted(pattern_counts.items())],
                        dtype=np.int64).reshape(-1, 5)
    return [(('"mask"', '"%#06x"', "%d"), hist._sorted),
            (('"pattern"', '"%d:%d:%d:%d"', "%d"), patterns.T)]


def cmd_curve(args) -> int:
    src = _source(args)
    if args.eta_steps < 1:
        raise ValueError("eta-steps must be >= 1")
    etas = np.linspace(args.eta_start, args.eta_stop, args.eta_steps)
    points = estimation.performance_curve(src, etas, d=args.d or None)  # 0: number-resolving
    meta = {
        "tau": args.tau,
        "d": args.d,
        **_truncation_meta(src),
        "snl_reference": 1.0,
        "heisenberg_limit": estimation.heisenberg_limit(src),
    }
    fields = list(vars(points[0]))  # a column per PerformancePoint field
    return _emit(args, meta, fields,
                 [(("%r",) * len(fields), np.array([list(vars(p).values()) for p in points]).T)])


# ---------------------------------------------------------------------------
# parser


_COMMANDS = ("fringes", "fisher", "calibrate", "herald", "count", "curve")


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone when it names one,
    which reads it alike: its metavar spells every choice in the usage line (the
    full parser keeps the default, as its errors name the action by metavar)."""
    parser = argparse.ArgumentParser(
        prog="spdcmet",
        description="Photon-counting interferometry simulator and estimator",
    )
    command = command if command in _COMMANDS else None
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(_COMMANDS) + "}" if command else None)

    if command in (None, "fringes"):
        sp = sub.add_parser("fringes", help="pattern probabilities over a phase grid")
        _add_model_args(sp)
        _add_grid_args(sp)
        _add_io_args(sp)
        sp.set_defaults(func=cmd_fringes)

    if command in (None, "fisher"):
        sp = sub.add_parser("fisher", help="Fisher information analysis")
        _add_model_args(sp)
        _add_grid_args(sp)
        _add_io_args(sp)
        sp.add_argument("--bootstrap", type=int, default=100,
                        help="bootstrap replicates for the band (0 disables)")
        sp.add_argument("--counts-per-phase", type=float, default=10_000.0,
                        help="synthetic event count per phase for the band")
        sp.add_argument("--ml-reps", type=int, default=200,
                        help="maximum-likelihood repetitions per benchmark point (0 disables)")
        sp.add_argument("--ml-samples", type=int, default=1000,
                        help="events per maximum-likelihood estimate")
        sp.set_defaults(func=cmd_fisher)

    if command in (None, "calibrate"):
        sp = sub.add_parser("calibrate", help="recover tau and transmissions from rates")
        sp.add_argument("rates", help="CSV of per-pulse rates")
        _add_io_args(sp)
        sp.set_defaults(func=cmd_calibrate)

    if command in (None, "herald"):
        sp = sub.add_parser("herald", help="heralded information-per-photon table")
        sp.add_argument("--tau", type=float, default=0.05)
        sp.add_argument("--etas", default="0.7,0.8,0.9,0.95,1.0",
                        help="comma-separated transmissions")
        sp.add_argument("--k-max", type=int, default=3)
        _add_io_args(sp)
        sp.set_defaults(func=cmd_herald)

    if command in (None, "count"):
        sp = sub.add_parser("count", help="coincidence-count a timetag stream")
        sp.add_argument("timetags", help="timetag file, CSV or binary")
        sp.add_argument("--map", default=None, help="channel map file (channel=mode lines)")
        sp.add_argument("--window", type=float, default=timetags.DEFAULT_WINDOW_PS,
                        help="window in ps (finite, >= 1); a click joins if its offset is below it")
        sp.add_argument("--rep-period", type=int, default=timetags.DEFAULT_REP_PERIOD_PS,
                        help="pulse period in ps; 0 anchors windows on first clicks")
        sp.add_argument("--n-windows", type=int, default=None,
                        help="total pulse count, so empty windows are tallied (pulse clock only)")
        sp.add_argument("--input-format", choices=("auto", "csv", "binary"), default="auto")
        _add_io_args(sp)
        sp.set_defaults(func=cmd_count)

    if command in (None, "curve"):
        sp = sub.add_parser("curve", help="normalized uncertainty against transmission")
        _add_model_args(sp, paths=False)
        sp.add_argument("--eta-start", type=float, default=0.05)
        sp.add_argument("--eta-stop", type=float, default=1.0)
        sp.add_argument("--eta-steps", type=int, default=20)
        _add_io_args(sp)
        sp.set_defaults(func=cmd_curve)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except (calibration.CalibrationError, timetags.ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except ValueError as exc:  # GainRangeError and HeraldError among them
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
