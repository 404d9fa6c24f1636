"""Command-line front end: angular invariant, sweeps, crowns, foliations.

Exit codes: 0 success, 2 configuration error, 3 precondition failure,
4 certification failure (a crossing witness was found).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

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
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    val = cartan(p, q, r)
    note = " (degenerate)" if val.degenerate else ""
    print(f"A = {val.angle:.12f}{note}")
    print(f"|A| = {abs(val.angle):.12f}")
    return EXIT_OK


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc


def _build_rep(cfg: dict):
    p = int(cfg.get("p", 3))
    q = int(cfg.get("q", 3))
    r = int(cfg.get("r", 4))
    if "target_tau" in cfg:
        return triangle_group_at_tau(p, q, r, float(cfg["target_tau"]))
    phase = float(cfg.get("phase", math.pi))
    return triangle_group(TriangleParams(p, q, r, phase))


def cmd_sweep(args) -> int:
    try:
        cfg = _load_config(args.config)
        p = int(cfg.get("p", 3))
        q = int(cfg.get("q", 3))
        r = int(cfg.get("r", 4))
        phase_lo = float(cfg.get("phase_lo", math.pi))
        phase_hi = float(cfg.get("phase_hi", 4.3))
        n_phases = int(cfg.get("n_phases", 16))
        word_length = int(cfg.get("word_length", 10))
        dedup_eps = float(cfg.get("dedup_eps", 1e-3))
        if n_phases < 1 or phase_hi <= phase_lo:
            raise ValueError("empty phase range")
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "sweep.csv"
    json_path = out_dir / "sweep.json"
    metadata = _metadata(cfg)
    phases = [float(phi) for phi in np.linspace(phase_lo, phase_hi, n_phases)]
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
    result = sweep(p, q, r, [phases[k] for k in todo], word_length, dedup_eps)
    runtime = time.time() - t0
    index_of = {phases[k]: k for k in todo}
    rows = list(done.values())
    for row in result.row_dicts():
        rows.append(dict(row, index=index_of[row["phase"]]))
    rows.sort(key=lambda row: -row["tau"][0] if row["error"] is None else math.inf)
    csv_path.write_text(rows_to_csv(rows))
    payload = json.loads(result.to_json(runtime))
    payload["rows"] = rows
    payload["metadata"] = metadata
    json_path.write_text(json.dumps(payload, indent=1))
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
        cfg = _load_config(args.config)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        rep = _build_rep(cfg)
        gamma_word = str(cfg.get("gamma_word", "3212"))
        length = int(cfg.get("word_length", 6))
        crown = build_crown(rep, gamma_word, length)
    except GeometryError as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    report = embeddedness(crown)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "crown_report.json"
    report_path.write_text(
        json.dumps(
            {
                "status": report.status,
                "min_margin": report.min_margin,
                "witness": list(report.witness) if report.witness else None,
                "arcs_tested": report.arcs_tested,
                "metadata": _metadata(cfg),
            },
            indent=1,
        )
    )
    if report.status != "EMBEDDED":
        print(
            f"certification failure: arcs {report.witness} cross "
            f"at {report.witness_point}",
            file=sys.stderr,
        )
        return EXIT_CERTIFICATION
    bundle = export_uniformization(crown, report, metadata=_metadata(cfg))
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
    except ValueError as exc:
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
        pts = leaf.sample(args.n_samples)
        payload = {
            "endpoints": [str(leaf.start), str(leaf.end)],
            "residual": residual,
            "polyline": [q.to_json() for q in pts],
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


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
