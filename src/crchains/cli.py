"""Command-line front end: angular invariant, sweeps, crowns, foliations.

Exit codes: 0 success, 2 configuration error, 3 precondition failure,
4 certification failure (a crossing witness was found).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__, hermitian
from .boundary import BoundaryPoint, INFINITY, cartan
from .circles import bent_leaf, foliation_leaf_rcircle
from .crowns import build_crown, embeddedness, export_uniformization
from .groups import TriangleParams, triangle_group, triangle_group_at_tau
from .hermitian import GeometryError
from .slimness import rows_to_csv, spearman_neg_tau_vs_sup, sweep

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_CERTIFICATION = 4


def _metadata(config: dict) -> dict:
    blob = json.dumps(config, sort_keys=True).encode()
    return {
        "version": __version__,
        # the whole tolerance table: TOL_NULL is "null", TOL_LOX "lox", ...
        "tolerances": {
            name[4:].lower(): value
            for name, value in vars(hermitian).items()
            if name.startswith("TOL_")
        },
        "config_hash": hashlib.sha256(blob).hexdigest(),
        # the top-level scipy package only: its submodules load where used
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "cpu_count": os.cpu_count(),
        },
    }


def _parse_point(tokens: list[str]) -> tuple[BoundaryPoint, list[str]]:
    if not tokens:
        raise ValueError("missing point")
    if tokens[0] == "inf":
        return INFINITY, tokens[1:]
    if len(tokens) < 3:
        raise ValueError("finite points need z_re z_im t")
    z = complex(float(tokens[0]), float(tokens[1]))
    return BoundaryPoint(z, float(tokens[2])), tokens[3:]


def cmd_cartan(args) -> int:
    tokens = list(args.coords)
    try:
        p, tokens = _parse_point(tokens)
        q, tokens = _parse_point(tokens)
        r, tokens = _parse_point(tokens)
        if tokens:
            raise ValueError(f"trailing arguments {tokens}")
    except (ValueError, GeometryError) as exc:  # a point without a finite lift
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    val = cartan(p, q, r)
    note = " (degenerate)" if val.degenerate else ""
    print(f"A = {val.angle:.12f}{note}")
    print(f"|A| = {abs(val.angle):.12f}")
    return EXIT_OK


def _setting(value, default):
    """value as the type of default, refusing what the conversion would change:
    a boolean, or a non-integral float for an integer setting."""
    if isinstance(value, bool) or (
        isinstance(default, int) and isinstance(value, float) and not value.is_integer()
    ):
        raise ValueError(f"{value!r} is not a {type(default).__name__}")
    return type(default)(value)


def _read_config(path: str | None, **defaults) -> tuple[dict, dict]:
    """The JSON config of `sweep` or `crown` and its settings, each read as
    the type of its default; ValueError on a malformed file or setting."""
    cfg = {}
    if path is not None:
        try:
            with open(path) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValueError(f"config {path} is not a JSON object")
    try:
        settings = {key: _setting(cfg.get(key, d), d) for key, d in defaults.items()}
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed setting in {path}: {exc}") from exc
    if settings.get("gamma_word", "").strip("123"):
        raise ValueError(f"gamma_word in {path} is not a word in the letters 1, 2, 3")
    return cfg, settings


def cmd_sweep(args) -> int:
    try:
        cfg, s = _read_config(
            args.config, p=3, q=3, r=4, phase_lo=math.pi, phase_hi=4.3, n_phases=16,
            word_length=10, dedup_eps=hermitian.TOL_LIMIT,
        )
        # NaN fails the chain of comparisons too
        if s["n_phases"] < 1 or not -math.inf < s["phase_lo"] < s["phase_hi"] < math.inf:
            raise ValueError("empty or unbounded phase range")
        if s["word_length"] < 1:
            raise ValueError(f"word_length {s['word_length']} is below 1")
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    n_phases = s["n_phases"]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "sweep.csv"
    json_path = out_dir / "sweep.json"
    metadata = _metadata(cfg)
    phases = np.linspace(s["phase_lo"], s["phase_hi"], n_phases).tolist()
    # Finished rows are keyed by their index in `phases`; a file from
    # another config (or without indices) is never resumed over.
    done: dict[int, dict] = {}
    if args.resume and json_path.exists():
        old = json.loads(json_path.read_text())
        old_rows = old.get("rows", [])
        old_hash = old.get("metadata", {}).get("config_hash")
        if old_hash != metadata["config_hash"] or any(
            "index" not in row for row in old_rows
        ):
            print(
                f"config error: {json_path} was not written by this config; "
                "refusing to resume over it",
                file=sys.stderr,
            )
            return EXIT_CONFIG
        done = {row["index"]: row for row in old_rows if row["error"] is None}
        print(f"resume: {len(done)} phases already complete")
    todo = [k for k in range(n_phases) if k not in done]
    t0 = time.time()
    todo_phases = [phases[k] for k in todo]
    pqr = s["p"], s["q"], s["r"]
    result = sweep(*pqr, todo_phases, s["word_length"], s["dedup_eps"])
    runtime = time.time() - t0
    index_of = {phases[k]: k for k in todo}
    rows = list(done.values())
    for row in result.row_dicts():
        rows.append(dict(row, index=index_of[row["phase"]]))
    rows.sort(key=lambda row: -row["tau"][0] if row["error"] is None else math.inf)
    csv_path.write_text(rows_to_csv(rows))
    json_path.write_text(result.to_json(runtime, rows, metadata))
    ok_rows = [row for row in rows if row["error"] is None]
    if len(ok_rows) >= 3:
        rho = spearman_neg_tau_vs_sup(rows)
        print(f"monotone trend: spearman(-tau, sup) = {rho:.4f}")
    for row in result.rows:
        if row.error is not None:
            print(f"phase {row.phase:.4f} failed: {row.error}", file=sys.stderr)
    print(f"wrote {csv_path} and {json_path} ({len(ok_rows)} rows)")
    return EXIT_OK


def cmd_crown(args) -> int:
    try:
        cfg, s = _read_config(
            args.config, p=3, q=3, r=4, phase=math.pi, target_tau=math.nan,
            gamma_word="3212", word_length=6,
        )
        if s["word_length"] < 1:
            raise ValueError(f"word_length {s['word_length']} is below 1")
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        pqr = s["p"], s["q"], s["r"]
        if "target_tau" in cfg:  # overrides the phase
            rep = triangle_group_at_tau(*pqr, s["target_tau"])
        else:
            rep = triangle_group(TriangleParams(*pqr, s["phase"]))
        crown = build_crown(rep, s["gamma_word"], s["word_length"])
        report = embeddedness(crown)
    except GeometryError as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    metadata = _metadata(cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # the report's fields but the witness point, which the failure message prints
    fields = {k: v for k, v in vars(report).items() if k != "witness_point"}
    report_path = out_dir / "crown_report.json"
    report_path.write_text(json.dumps(dict(fields, metadata=metadata), indent=1))
    if report.status != "EMBEDDED":
        print(
            f"certification failure: arcs {report.witness} cross "
            f"at {report.witness_point}",
            file=sys.stderr,
        )
        return EXIT_CERTIFICATION
    bundle = export_uniformization(crown, report, metadata=metadata)
    bundle_path = out_dir / "crown.json"
    bundle_path.write_text(bundle)
    print(
        f"EMBEDDED: {len(crown.arcs)} arcs, margin {report.min_margin:.6g}; "
        f"wrote {bundle_path}"
    )
    return EXIT_OK


def cmd_foliation(args) -> int:
    try:
        p, rest = _parse_point(list(args.coords))
        if rest:
            raise ValueError(f"trailing arguments {rest}")
    except (ValueError, GeometryError) as exc:  # a point without a finite lift
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.mode == "rcircle":
            leaf = foliation_leaf_rcircle(p)
        else:
            leaf = bent_leaf(p, args.theta)
    except GeometryError as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    _, residual = leaf.param_of(p)
    print(f"endpoints: {leaf.start} {leaf.end}")
    print(f"residual: {residual:.3e}")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "endpoints": [leaf.start.to_json(), leaf.end.to_json()],
            "residual": residual,
            "polyline": leaf.sample(args.n_samples).json_points(),
            "metadata": _metadata(
                {
                    "mode": args.mode,
                    "coords": list(args.coords),
                    "theta": args.theta,
                    "n_samples": args.n_samples,
                }
            ),
        }
        path = out_dir / "leaf.json"
        path.write_text(json.dumps(payload, indent=1))
        print(f"wrote {path}")
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crchains",
        description="Boundary geometry computations for the complex hyperbolic plane",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", default=None, help="JSON config file")
        sp.add_argument("--out", default="out", help="output directory")

    sp = sub.add_parser("cartan", help="angular invariant of three points")
    sp.add_argument(
        "coords",
        nargs="+",
        help="three points, each 'z_re z_im t' or 'inf'",
    )
    sp.set_defaults(func=cmd_cartan)

    sp = sub.add_parser("sweep", help="deformation sweep of limit-set slimness")
    common(sp)
    sp.add_argument(
        "--resume",
        action="store_true",
        help="keep the finished rows of the output and compute only the rest",
    )
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("crown", help="build and certify a crown")
    common(sp)
    sp.set_defaults(func=cmd_crown)

    sp = sub.add_parser("foliation", help="leaf of an arc foliation through a point")
    sp.add_argument("mode", choices=["rcircle", "bent"])
    sp.add_argument("coords", nargs="+", help="point as 'z_re z_im t'")
    sp.add_argument("--theta", type=float, default=3 * math.pi / 4)
    sp.add_argument("--out", default=None)
    sp.add_argument("--n-samples", type=int, default=64)
    sp.set_defaults(func=cmd_foliation)

    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:  # built once per process; each cmd_* reads its names when called
        _parser = make_parser()
    args = _parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
