"""Command-line front end: verify identities, list the catalog and registry."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import charts, jets, suite
from .identities import GATES, OUT_OF_SCOPE, REGISTRY
from .suite import ConfigError, RunConfig


def _split_list(value: str) -> tuple:
    return tuple(v.strip() for v in value.split(",") if v.strip())


def _parse_tol(pairs) -> dict:
    out = {}
    for item in pairs or ():
        if "=" not in item:
            raise ConfigError(f"--tol expects id=value, got {item!r}")
        key, val = item.split("=", 1)
        try:
            out[key.strip()] = float(val)
        except ValueError:
            raise ConfigError(f"--tol {key.strip()}: value {val!r} is not a "
                              f"number") from None
    return out


def _parse_jet_order(value: str):
    if value == "auto":
        return value
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"--jet-order expects 'auto' or an integer, got "
                          f"{value!r}") from None


def _exponents(key: str, item: str) -> tuple:
    """The exponent tuple 'e1,e2,e3,e4': four non-negative integers."""
    exp = [e.strip() for e in key.split(",")]
    if len(exp) != 4 or not all(e.isdecimal() for e in exp):
        raise ConfigError(f"bad exponent tuple in {item!r}: expected four "
                          f"non-negative integers e1,e2,e3,e4")
    return tuple(int(e) for e in exp)


def _coefficient(val, item: str) -> float:
    """A conformal factor coefficient: a finite int or float.  A bool (JSON
    true or false) is not a number, nor is a JSON string."""
    if isinstance(val, (int, float)) and not isinstance(val, bool):
        try:
            num = float(val)
        except OverflowError:
            num = math.inf
        if math.isfinite(num):
            return num
    raise ConfigError(f"--conformal-phi: coefficient {val!r} in {item!r} is "
                      f"not a finite real number")


def _parse_conformal(args) -> dict | None:
    """Monomial coefficients for the conformal factor exponent.

    Accepts repeated 'e1,e2,e3,e4=coeff' items or a single JSON object string
    mapping 'e1,e2,e3,e4' keys to coefficients.  A monomial given twice, in
    either form, is a ConfigError.
    """
    coeffs = {}
    for item in args or ():
        text = item.strip()
        if text.startswith("{"):
            try:
                # the object's pairs in order, repeated keys included
                pairs = json.loads(text, object_pairs_hook=list)
            except ValueError as exc:
                raise ConfigError(f"--conformal-phi: {item!r} is not a JSON "
                                  f"object: {exc}") from None
        elif "=" in text:
            key, val = text.split("=", 1)
            try:
                num = float(val)
            except ValueError:
                num = val.strip()
            pairs = [(key, num)]
        else:
            raise ConfigError(
                f"--conformal-phi expects e1,e2,e3,e4=coeff, got {item!r}")
        for key, val in pairs:
            exp = _exponents(key, item)
            if exp in coeffs:
                raise ConfigError(f"--conformal-phi: monomial {exp} is given "
                                  f"more than once")
            coeffs[exp] = _coefficient(val, item)
    return coeffs or None


def _check_out(path: str | None) -> None:
    """The report target must be a file in an existing directory; checked
    before any point runs."""
    if not path:
        return
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise ConfigError(f"--out {path!r}: directory {folder!r} does not "
                          f"exist")
    if os.path.isdir(path):
        raise ConfigError(f"--out {path!r} is a directory")


def list_identities(out) -> None:
    for sid in sorted(REGISTRY):
        spec = REGISTRY[sid]
        anchors = ",".join(spec.anchors)
        out.write(f"{sid}  {GATES[spec.gate].label}  jets:{spec.jet_order}  "
                  f"anchors:{anchors}\n")
    for entry in OUT_OF_SCOPE:
        anchors = ",".join(entry.anchors)
        out.write(f"{entry.id}  out-of-scope(global)  anchors:{anchors}  "
                  f"({entry.note})\n")


def _property_summary(chart) -> str:
    cp = charts.curvature_at(chart, chart.domain.mean(axis=1), depth=1)
    from .identities import PointData
    pd = PointData(cp)
    bits = []
    if pd.is_einstein:
        bits.append(f"Einstein(lambda={pd.R / 4.0:.6g})")
    else:
        bits.append("non-Einstein")
    bits.append("divW=0" if pd.is_harmonic else "divW!=0")
    bits.append("gradW=0" if pd.is_parallel else "gradW!=0")
    if pd.is_conformally_flat:
        bits.append("W=0")
    if chart.properties.negative_control:
        bits.append("negative-control")
    return " ".join(bits)


def list_manifolds(out, conformal=None) -> None:
    catalog = charts.build_catalog(conformal)
    for name in catalog:
        out.write(f"{name}  {_property_summary(catalog[name])}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylforge",
        description="Residual verification of four-dimensional curvature "
                    "identities on a catalog of closed-form metrics.")
    sub = parser.add_subparsers(dest="command", required=True)

    ver = sub.add_parser("verify", help="run identity checks")
    ver.add_argument("--manifolds", default="all",
                     help="comma-separated catalog names or 'all'")
    ver.add_argument("--identities", default="all",
                     help="comma-separated identity ids or 'all'")
    ver.add_argument("--points", type=int, default=20,
                     help="sample points per manifold")
    ver.add_argument("--seed", type=int, default=42)
    ver.add_argument("--jet-order", default="auto",
                     help="'auto' or a fixed metric jet order "
                          f"3..{jets.MAX_ORDER}")
    ver.add_argument("--tol", action="append", metavar="ID=VALUE",
                     help="override the pass threshold of one identity "
                     "(finite and > 0)")
    ver.add_argument("--format", choices=("json", "csv", "text"),
                     default="json")
    ver.add_argument("--out", default=None, help="write the report to a file")
    ver.add_argument("--deterministic", action="store_true",
                     help="suppress the report timestamp")
    ver.add_argument("--conformal-phi", action="append",
                     metavar="E1,E2,E3,E4=COEFF",
                     help="monomial coefficient of the conformal factor "
                          "exponent (repeatable, or one JSON object)")

    lst = sub.add_parser("list", help="list manifolds or identities")
    lst.add_argument("what", choices=("manifolds", "identities"))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            if args.what == "identities":
                list_identities(sys.stdout)
            else:
                list_manifolds(sys.stdout)
            return 0

        cfg = RunConfig(
            manifolds=_split_list(args.manifolds),
            identities=_split_list(args.identities),
            points_per_manifold=args.points,
            seed=args.seed,
            tolerance_overrides=_parse_tol(args.tol),
            jet_order=_parse_jet_order(args.jet_order),
            output_format=args.format,
            output_path=args.out,
            deterministic=args.deterministic,
            conformal_coeffs=_parse_conformal(args.conformal_phi),
        )
        _check_out(cfg.output_path)
        report = suite.run_suite(cfg)
    # ConfigError and charts.DomainError are ValueErrors
    except (charts.CapacityError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    text = suite.render(report, cfg.output_format)
    if cfg.output_path:
        try:
            with open(cfg.output_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"cannot write --out {cfg.output_path!r}: {exc.strerror}",
                  file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    if report.summary["nonfinite"]:
        print("non-finite residuals detected: "
              + ", ".join(report.summary["nonfinite"]), file=sys.stderr)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
