"""Correctness gate applied to every solve, and output fingerprints.

The gate needs no exact oracle: for any finite dual point lam,

    -L(lam) <= LP* <= <C, Proj mu(lam)>

where L is the smoothed dual and Proj mu(lam) the recovered primal candidate
projected onto the local polytope.  Where LP* is known the whole bracket is
checked; elsewhere the two bounds are checked against each other.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

import mapmp


@dataclass
class Verdict:
    """Gate outcome for one solve.  ``certified_gap`` is
    <C, Proj mu(lam)> + L(lam), an upper bound on the primal gap."""

    dual: float = math.nan
    primal: float = math.nan
    certified_gap: float = math.nan
    rounded: float = math.nan
    failures: list[str] = field(default_factory=list)


def gate(model, lam, eta: float, lp_value: float | None = None, tol: float = 1e-6) -> Verdict:
    """Check one final dual point; see the module docstring.  ``tol`` is
    relative to 1 + |LP*| (or 1 + |<C, Proj mu>| without LP*)."""
    out = Verdict()
    if not np.isfinite(lam).all():
        out.failures.append("lambda has non-finite entries")
        return out
    out.dual = mapmp.dual_and_slack(model, lam, eta)[0]
    try:
        mu_hat = mapmp.proj(model, mapmp.recover_primal(model, lam, eta))
    except mapmp.ValidationError as exc:
        out.failures.append(f"projection refused the candidate: {exc}")
        return out
    out.primal = mapmp.primal_objective(model, mu_hat)
    if not (math.isfinite(out.dual) and math.isfinite(out.primal)):
        out.failures.append(f"non-finite values: dual {out.dual}, primal {out.primal}")
        return out
    out.certified_gap = out.primal + out.dual
    lower = -out.dual
    slack = tol * (1.0 + abs(out.primal if lp_value is None else lp_value))
    if lp_value is None:
        if lower > out.primal + slack:
            out.failures.append(f"-L(lam) = {lower} exceeds <C, Proj mu> = {out.primal}")
    else:
        if lower > lp_value + slack:
            out.failures.append(f"-L(lam) = {lower} exceeds LP* = {lp_value}")
        if lp_value > out.primal + slack:
            out.failures.append(f"LP* = {lp_value} exceeds <C, Proj mu> = {out.primal}")
    if not mapmp.in_local_polytope(model, mu_hat):
        out.failures.append("Proj mu is outside the local polytope")
    out.rounded = mapmp.map_value(model, mapmp.vertex_round(mu_hat))
    floor = lower if lp_value is None else lp_value
    if out.rounded < floor - slack:
        out.failures.append(f"rounded value {out.rounded} is below the lower bound {floor}")
    return out


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    elif isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data).tobytes()
    return hashlib.sha256(data).hexdigest()


def same_model(a, b) -> bool:
    return (
        a.n == b.n
        and a.d == b.d
        and np.array_equal(a.edges, b.edges)
        and np.array_equal(a.vertex_costs, b.vertex_costs)
        and np.array_equal(a.edge_costs, b.edge_costs)
    )
