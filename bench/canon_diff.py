#!/usr/bin/env python3
"""Compare two JSON reports of the same `weylforge verify` run.

Usage (from the root of a checkout):

    python3 bench/canon_diff.py PARENT.json CHANGE.json

Both files are `verify ... --deterministic --format json` reports, for
example of `verify --points 20 --seed 42` at a parent commit and at a
change.  The script prints:

- whether every (identity, manifold, point, status, jet_order_used) row and
  `summary.ok` are identical;
- how many applicable rows have a bit-identical `residual_rel`;
- for each identity, the largest |delta residual_rel| / tol over its
  applicable rows, with tol the report's override or the registry's
  `spec.tol` of this checkout.  Above 0.05 (`BAR`) the residuals moved by
  more than round-off should, and the identity is flagged;
- for each identity, the largest ratio of the change's `scale` to the
  parent's over its applicable rows.  A ratio above 1 + 1e-12 means the
  change divides by more, a looser check, and is flagged.

It exits 0 when rows and `summary.ok` are identical, no residual moved past
the bar and no check got looser, and 1 otherwise.  A reader that stops
early (`| head`) ends the printing quietly, with the same exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from weylforge.identities import REGISTRY  # noqa: E402

KEY = ("identity_id", "manifold", "point", "status", "jet_order_used")
LOOSER = 1.0 + 1e-12
BAR = 0.05


def compare(parent: dict, change: dict) -> dict:
    """Row identity, bit-identical count, max |d residual_rel|/tol and max
    scale ratio per identity, the identities whose residuals moved past BAR
    and those whose check got looser."""
    rows_p, rows_c = parent["results"], change["results"]
    keys_p = [tuple(json.dumps(r[k]) for k in KEY) for r in rows_p]
    keys_c = [tuple(json.dumps(r[k]) for k in KEY) for r in rows_c]
    overrides = change["config"].get("tolerance_overrides", {})
    applicable = bit_identical = 0
    worst: dict[str, float] = {}
    scale_ratio: dict[str, float] = {}
    if keys_p == keys_c:
        for rp, rc in zip(rows_p, rows_c):
            if rp["status"] == "not_applicable":
                continue
            sid = rp["identity_id"]
            tol = overrides.get(sid, REGISTRY[sid].tol)
            applicable += 1
            bit_identical += rp["residual_rel"] == rc["residual_rel"]
            delta = abs(rc["residual_rel"] - rp["residual_rel"]) / tol
            worst[sid] = max(worst.get(sid, 0.0), delta)
            scale_ratio[sid] = max(scale_ratio.get(sid, 0.0),
                                   rc["scale"] / rp["scale"])
    return {
        "rows_identical": keys_p == keys_c,
        "rows": (len(rows_p), len(rows_c)),
        "ok_identical": parent["summary"]["ok"] == change["summary"]["ok"],
        "ok": (parent["summary"]["ok"], change["summary"]["ok"]),
        "applicable": applicable,
        "bit_identical": bit_identical,
        "max_delta_over_tol": dict(sorted(worst.items())),
        "max_scale_ratio": dict(sorted(scale_ratio.items())),
        "over_bar": sorted(sid for sid, d in worst.items() if d > BAR),
        "looser": sorted(sid for sid, r in scale_ratio.items() if r > LOOSER),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    args = p.parse_args(argv)
    res = compare(json.loads(args.parent.read_text()),
                  json.loads(args.change.read_text()))
    try:
        _print(res)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early (`| head`): print nothing more, and let
        # the interpreter's last flush write to /dev/null, not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    ok = (res["rows_identical"] and res["ok_identical"]
          and not res["over_bar"] and not res["looser"])
    return 0 if ok else 1


def _print(res: dict) -> None:
    print(f"rows identical: {res['rows_identical']} "
          f"({res['rows'][0]} parent, {res['rows'][1]} change)")
    print(f"summary.ok identical: {res['ok_identical']} "
          f"(parent {res['ok'][0]}, change {res['ok'][1]})")
    if res["rows_identical"]:
        print(f"bit-identical residual_rel: {res['bit_identical']} of "
              f"{res['applicable']} applicable rows")
        print("max |delta residual_rel| / tol per identity:")
        for sid, v in sorted(res["max_delta_over_tol"].items(),
                             key=lambda kv: -kv[1]):
            flag = "  OVER BAR" if v > BAR else ""
            print(f"  {v:.3e}  {sid}{flag}")
        print("max scale ratio change / parent per identity:")
        for sid, v in sorted(res["max_scale_ratio"].items(),
                             key=lambda kv: -kv[1]):
            flag = "  LOOSER" if v > LOOSER else ""
            print(f"  {v:.15f}  {sid}{flag}")


if __name__ == "__main__":
    raise SystemExit(main())
