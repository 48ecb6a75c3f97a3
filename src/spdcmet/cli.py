"""Command-line interface.

Subcommands: fringes, fisher, calibrate, herald, count, curve.  Every
output embeds a metadata block (parameters, seed, truncation, package
version) and contains no timestamps, so identical invocations produce
byte-identical files.  Exit codes: 0 success, 2 usage or invalid
configuration, 3 data or model error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__, calibration, engine, estimation, heralding, timetags
from .fock import GainRangeError, SourceParams, truncation_tail

USAGE_ERROR = 2
DATA_ERROR = 3


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _write_output(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _render(meta, columns, rows, fmt, extra_sections=None):
    """Serialize a table plus metadata as CSV ('#' header) or JSON."""
    if fmt == "json":
        doc = {"meta": meta, "columns": list(columns),
               "rows": [[_json_cell(v) for v in row] for row in rows]}
        if extra_sections:
            doc.update(extra_sections)
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    lines = [f"# {k} = {_fmt(v)}" for k, v in meta.items()]
    if extra_sections:
        for name, payload in extra_sections.items():
            lines.append(f"# {name}: {json.dumps(payload, sort_keys=True)}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_cell(v):
    if isinstance(v, (np.floating, float)):
        return float(v)
    if isinstance(v, (np.integer, int)):
        return int(v)
    return v


def _add_model_args(sp, tau=0.061, eta_a=0.23, eta_b=0.12):
    sp.add_argument("--tau", type=float, default=tau, help="parametric gain")
    sp.add_argument("--eta-a", type=float, default=eta_a, help="sensing-path transmission")
    sp.add_argument("--eta-b", type=float, default=eta_b, help="reference-path transmission")
    sp.add_argument("--d", type=int, default=4,
                    help="detectors per mode; 0 means number-resolving counters")
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


def _base_meta(args, src, command):
    return {
        "command": command,
        "version": __version__,
        "tau": args.tau,
        "eta_a": getattr(args, "eta_a", ""),
        "eta_b": getattr(args, "eta_b", ""),
        "d": getattr(args, "d", ""),
        "theta": getattr(args, "theta", 0.0),
        **_truncation_meta(src),
        "seed": getattr(args, "seed", 0),
    }


def _phi_grid(args):
    if args.phi_steps < 1:
        raise ValueError("phi-steps must be >= 1")
    return np.linspace(args.phi_start, args.phi_stop, args.phi_steps, endpoint=False)


def _pattern_label(pattern):
    return "p" + "".join(str(v) for v in pattern)


# ---------------------------------------------------------------------------
# subcommands


def cmd_fringes(args) -> int:
    src = _source(args)
    det = _detector(args, src)
    family = engine.fourfold_family(src, det, theta=args.theta)
    grid = _phi_grid(args)
    columns = ["phi"] + [_pattern_label(p) for p in family.patterns]
    rows = [[phi] + list(p) for phi, p in zip(grid, family.probabilities(grid))]
    meta = _base_meta(args, src, "fringes")
    _write_output(args.out, _render(meta, columns, rows, args.format))
    return 0


def cmd_fisher(args) -> int:
    src = _source(args)
    det = _detector(args, src)
    family = engine.fourfold_family(src, det, theta=args.theta)
    grid = _phi_grid(args)

    central, clipped = estimation.fisher_curve(family, grid)
    snl = estimation.snl_fisher(src, det)

    # best information over a finer scan for the advantage summary
    phi_star, i_star = estimation.argmax_over_phase(
        lambda p: estimation.fisher_information(family, p), 512)
    advantage = i_star / snl - 1.0

    band_low = band_high = None
    patched_rows = 0
    if args.bootstrap > 0:
        counts = family.probabilities(grid) * args.counts_per_phase
        band = estimation.bootstrap_fisher_band(
            grid, counts, replicates=args.bootstrap, seed=args.seed
        )
        band_low, band_high, patched_rows = band.low, band.high, band.patched_rows

    ml_points = []
    if args.ml_reps > 0:
        span = args.phi_stop - args.phi_start
        for j, frac in enumerate((0.2, 0.45, 0.7)):
            phi_j = args.phi_start + frac * span
            # p(phi) = p(2 theta - phi): keep the mirror estimate out of the window
            mirror_gap = abs(math.remainder(2.0 * (phi_j - args.theta), 2.0 * math.pi))
            res = estimation.monte_carlo_ml_fisher(
                family, phi_j, repetitions=args.ml_reps,
                sample_size=args.ml_samples, seed=args.seed + 1000 + j,
                search_halfwidth=min(math.pi / 4.0, mirror_gap / 2.0),
            )
            ml_points.append({
                "phi": float(phi_j), "i_ml": res.i_ml, "stderr": res.stderr,
                "edge_hits": res.edge_hits,
            })

    columns = ["phi", "fisher", "clipped"]
    rows = [[phi, v, int(c)] for phi, v, c in zip(grid, central, clipped)]
    if band_low is not None:
        columns += ["band_low", "band_high"]
        rows = [row + [lo, hi] for row, lo, hi in zip(rows, band_low, band_high)]
    meta = _base_meta(args, src, "fisher")
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
        "ml_reps": args.ml_reps,
        "ml_samples": args.ml_samples,
    })
    extra = {"ml_points": ml_points} if ml_points else None
    _write_output(args.out, _render(meta, columns, rows, args.format, extra))
    return 0


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
        "command": "calibrate",
        "version": __version__,
        "rates_file": args.rates,
        "singles_a": rates.singles_a,
        "singles_b": rates.singles_b,
        "twofold": rates.twofold,
    }
    columns = ["tau", "eta_a", "eta_b", "pair_probability",
               "residual_singles_a", "residual_singles_b", "residual_twofold"]
    rows = [[result.tau, result.eta_a, result.eta_b, result.pair_probability,
             *result.residuals]]
    fmt = "json" if args.format == "json" else "csv"
    _write_output(args.out, _render(meta, columns, rows, fmt))
    return 0


def cmd_herald(args) -> int:
    etas = [float(s) for s in args.etas.split(",") if s.strip()]
    if args.k_max < 0:
        raise heralding.HeraldError(f"k-max must be a nonnegative herald count, got {args.k_max}")
    table = heralding.herald_table(args.tau, etas, range(args.k_max + 1))
    meta = {
        "command": "herald",
        "version": __version__,
        "tau": args.tau,
        "truncation": table.truncation,
        "truncation_tail": truncation_tail(SourceParams(args.tau), table.truncation),
        "etas": args.etas,
    }
    columns = ["k"] + [f"eta={_fmt(e)}" for e in etas]
    rows = [[k] + list(vals) for k, vals in table.rows()]
    _write_output(args.out, _render(meta, columns, rows, args.format))
    return 0


def cmd_count(args) -> int:
    records = timetags.TimetagFile(args.timetags, args.input_format)
    if args.map:
        with open(args.map) as fh:
            cmap = timetags.ChannelMap.from_text(fh.read())
    else:
        cmap = timetags.ChannelMap.default()
    rep = args.rep_period if args.rep_period > 0 else None
    result = timetags.count_coincidences(
        records, window_ps=args.window, cmap=cmap, rep_period_ps=rep,
        n_windows=args.n_windows,
    )
    hist = result.histogram
    meta = {
        "command": "count",
        "version": __version__,
        "records": len(records),
        "window_ps": args.window,
        "rep_period_ps": args.rep_period,
        "windows": hist.windows,
        "total_clicks": hist.total_clicks(),
        "late_clicks": result.late_clicks,
        "reordered": result.reordered,
    }
    columns = ["kind", "key", "count"]
    rows = [["mask", f"{mask:#06x}", n] for mask, n in sorted(hist.counts.items())]
    rows += [["pattern", ":".join(map(str, key)), n]
             for key, n in sorted(result.pattern_counts.items())]
    _write_output(args.out, _render(meta, columns, rows, args.format))
    return 0


def cmd_curve(args) -> int:
    src = _source(args)
    if args.eta_steps < 1:
        raise ValueError("eta-steps must be >= 1")
    etas = np.linspace(args.eta_start, args.eta_stop, args.eta_steps)
    d = None if args.d == 0 else args.d
    points = estimation.performance_curve(src, etas, d=d)
    meta = {
        "command": "curve",
        "version": __version__,
        "tau": args.tau,
        "d": args.d,
        **_truncation_meta(src),
        "snl_reference": 1.0,
        "heisenberg_limit": estimation.heisenberg_limit(src),
    }
    columns = ["eta", "fisher_max", "phi_opt", "delta_phi",
               "normalized_uncertainty", "heisenberg_normalized"]
    rows = [[p.eta, p.fisher_max, p.phi_opt, p.delta_phi,
             p.normalized_uncertainty, p.heisenberg_normalized] for p in points]
    _write_output(args.out, _render(meta, columns, rows, args.format))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spdcmet",
        description="Photon-counting interferometry simulator and estimator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("fringes", help="pattern probabilities over a phase grid")
    _add_model_args(sp)
    _add_grid_args(sp)
    _add_io_args(sp)
    sp.set_defaults(func=cmd_fringes)

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

    sp = sub.add_parser("calibrate", help="recover tau and transmissions from rates")
    sp.add_argument("rates", help="CSV of per-pulse rates")
    _add_io_args(sp)
    sp.set_defaults(func=cmd_calibrate)

    sp = sub.add_parser("herald", help="heralded information-per-photon table")
    sp.add_argument("--tau", type=float, default=0.05)
    sp.add_argument("--etas", default="0.7,0.8,0.9,0.95,1.0",
                    help="comma-separated transmissions")
    sp.add_argument("--k-max", type=int, default=3)
    _add_io_args(sp)
    sp.set_defaults(func=cmd_herald)

    sp = sub.add_parser("count", help="coincidence-count a timetag stream")
    sp.add_argument("timetags", help="timetag file, CSV or binary")
    sp.add_argument("--map", default=None, help="channel map file (channel=mode lines)")
    sp.add_argument("--window", type=float, default=timetags.DEFAULT_WINDOW_PS)
    sp.add_argument("--rep-period", type=int, default=timetags.DEFAULT_REP_PERIOD_PS,
                    help="pulse period in ps; 0 anchors windows on first clicks")
    sp.add_argument("--n-windows", type=int, default=None,
                    help="total pulse count, so empty windows are tallied")
    sp.add_argument("--input-format", choices=("auto", "csv", "binary"), default="auto")
    _add_io_args(sp)
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser("curve", help="normalized uncertainty against transmission")
    _add_model_args(sp)
    sp.add_argument("--eta-start", type=float, default=0.05)
    sp.add_argument("--eta-stop", type=float, default=1.0)
    sp.add_argument("--eta-steps", type=int, default=20)
    _add_io_args(sp)
    sp.set_defaults(func=cmd_curve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GainRangeError, ValueError) as exc:
        if isinstance(exc, (calibration.CalibrationError, timetags.ParseError)):
            print(f"error: {exc}", file=sys.stderr)
            return DATA_ERROR
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
