"""Approximation guarantees (Section 5.4 and Appendix B).

SummarySearch certifies a feasible solution ``x^{(q)}`` as
``(1+ε)``-approximate by comparing its objective ``ω^{(q)}`` against
bounds on the unknown validation-optimal objective ``ω̂``:

* Propositions 2–5 give the certificate ``ε^{(q)}`` for the four
  combinations of optimization sense and objective sign;
* Appendix B derives the bounds ``ω̲ ≤ ω̂ ≤ ω̄`` from (A1) per-tuple value
  bounds ``s̲ ≤ ŝ_ij ≤ s̄`` and (A2) package-size bounds ``l̲ ≤ Σx̂ ≤ l̄``,
  combined with constraint-specific components for constraints whose
  inner function equals the objective's (Definition 2).

The component decomposition ``ω̂ = ω̂⊙ + ω̂⊗`` (satisfied / violated
validation scenarios) is bounded component-wise, and the best available
bound is taken per component, exactly as prescribed at the end of
Appendix B.  Two published table entries for ``v < 0`` are not derivable
from the constraint alone; we use the sound general derivation (which
reproduces every provable entry of Tables 1–2 and the main-text bound
``ω̂ ≤ v + (1−p)s̄l̄``).

Value bounds come from VG support intervals propagated through the
objective expression by interval arithmetic when finite, and otherwise
from an explicit Monte Carlo probe over a dedicated stream (documented
substitution for the paper's "analyzing the validation scenarios").

The same support intervals feed :func:`prove_no_package`, the member
bound that lets SummarySearch and Naïve declare a query infeasible at
its first infeasible rung instead of climbing to ``M_max``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import betaincinv

from ..db.expressions import render
from ..db.intervals import IntervalError, evaluate_interval
from ..silp.model import (
    ChanceConstraint,
    ExpectationObjectiveIR,
    OP_GE,
    OP_LE,
    ProbabilityObjectiveIR,
    SENSE_MAX,
    SENSE_MIN,
)
from .package import PackageResult
from .validator import inner_holds

INTERACTION_SUPPORTING = "supporting"
INTERACTION_COUNTERACTING = "counteracting"
INTERACTION_INDEPENDENT = "independent"


@dataclass
class ObjectiveBounds:
    """Bounds ``lower ≤ ω̂ ≤ upper`` with provenance."""

    lower: float
    upper: float
    sound: bool = True
    sources: list = field(default_factory=list)

    def tightened(self, lower=None, upper=None, source: str = "") -> "ObjectiveBounds":
        """New bounds object with extra candidates folded in."""
        new_lower = self.lower if lower is None else max(self.lower, lower)
        new_upper = self.upper if upper is None else min(self.upper, upper)
        sources = list(self.sources)
        if source:
            sources.append(source)
        return ObjectiveBounds(new_lower, new_upper, self.sound, sources)


def interaction(objective, constraint: ChanceConstraint) -> str:
    """Definition 2: supporting / counteracting / independent.

    The classification requires the constraint's inner function to be the
    objective's inner function; structural expression equality implements
    that check.  A supporting constraint points in the optimization
    direction (``≤`` for minimization, ``≥`` for maximization).
    """
    if not isinstance(objective, ExpectationObjectiveIR):
        return INTERACTION_INDEPENDENT
    if constraint.expr != objective.expr:
        return INTERACTION_INDEPENDENT
    if objective.sense == SENSE_MIN:
        return (
            INTERACTION_SUPPORTING
            if constraint.inner_op == OP_LE
            else INTERACTION_COUNTERACTING
        )
    return (
        INTERACTION_SUPPORTING
        if constraint.inner_op == OP_GE
        else INTERACTION_COUNTERACTING
    )


# --- scenario-total bounds --------------------------------------------------------


def scenario_total_bounds(
    s_lo: float, s_hi: float, l_lo: float, l_hi: float
) -> tuple[float, float]:
    """Range of one scenario's package total ``Σ ŝ_ij x̂_i``.

    ``l`` tuples (counted with multiplicity) each contribute a value in
    ``[s̲, s̄]``; the extremes follow from the signs (Table 1's cases).
    """
    m_lo = s_lo * l_lo if s_lo >= 0 else s_lo * l_hi
    m_hi = s_hi * l_hi if s_hi >= 0 else s_hi * l_lo
    return m_lo, m_hi


def _component_bounds_agnostic(p: float, m_lo: float, m_hi: float) -> dict:
    """(a)-type components from scenario-total bounds (Table 2, group a).

    ``⊙`` covers the ≥ pM̂ satisfied scenarios, ``⊗`` the ≤ (1−p)M̂
    violated ones.
    """
    return {
        "L_sat": p * m_lo if m_lo >= 0 else m_lo,
        "U_sat": m_hi if m_hi >= 0 else p * m_hi,
        "L_vio": (1.0 - p) * m_lo if m_lo < 0 else 0.0,
        "U_vio": (1.0 - p) * m_hi if m_hi > 0 else 0.0,
    }


def _component_bounds_specific(inner_op: str, v: float, p: float) -> dict:
    """(b)-type components from the constraint itself (Table 2, group b).

    For ``≥ v``: satisfied scenarios total at least ``v`` each, violated
    scenarios at most ``v`` each.  For ``≤ v`` symmetric.  Components not
    derivable from the constraint are omitted (the published ``v < 0``
    ``⊗`` lower entries are unprovable; see module docstring).
    """
    out: dict = {}
    if inner_op == OP_GE:
        out["L_sat"] = p * v if v >= 0 else v
        out["U_vio"] = (1.0 - p) * v if v >= 0 else 0.0
    else:
        out["U_sat"] = v if v >= 0 else p * v
        out["L_vio"] = (1.0 - p) * v if v < 0 else 0.0
    return out


# --- value bounds -----------------------------------------------------------------


def expression_support(ctx, expr) -> tuple[np.ndarray, np.ndarray]:
    """Per-active-row interval ``[lo, hi]`` enclosing every value of ``expr``.

    Stochastic attributes contribute their VG ``support()``, deterministic
    ones their column; raises :class:`IntervalError` when interval
    arithmetic cannot bound the expression.  Bounds may be infinite.
    """
    relation, model = ctx.relation, ctx.model

    def support(name: str):
        if model is not None and model.is_stochastic(name):
            return model.support(name)
        column = np.asarray(relation.column(name), dtype=float)
        return column, column

    lo_vec, hi_vec = evaluate_interval(expr, support)
    rows = ctx.problem.active_rows
    return (
        np.broadcast_to(lo_vec, (relation.n_rows,))[rows],
        np.broadcast_to(hi_vec, (relation.n_rows,))[rows],
    )


def objective_value_bounds(ctx) -> tuple[float, float, bool]:
    """Per-tuple value bounds ``(s̲, s̄)`` for the objective expression.

    Returns ``(lo, hi, sound)``: sound bounds come from VG supports via
    interval arithmetic; the Monte-Carlo probe fallback is marked
    unsound.
    """
    expr = ctx.problem.objective.expr
    try:
        lo_vec, hi_vec = expression_support(ctx, expr)
        lo = float(np.min(lo_vec))
        hi = float(np.max(hi_vec))
        if np.isfinite(lo) and np.isfinite(hi):
            return lo, hi, True
    except IntervalError:
        lo, hi = -np.inf, np.inf
    # Fallback: empirical probe (unsound but practical, as in the paper's
    # "analyzing the validation scenarios produced by the VG functions").
    # Routed through the context's probe cache (and the shared scenario
    # store, when attached) — bit-identical to probing the generator.
    probe = ctx.probe_matrix(expr, ctx.config.n_probe_scenarios)
    probe_lo, probe_hi = float(probe.min()), float(probe.max())
    lo = probe_lo if not np.isfinite(lo) else lo
    hi = probe_hi if not np.isfinite(hi) else hi
    return float(lo), float(hi), False


# --- bound assembly ------------------------------------------------------------------


def compute_objective_bounds(ctx) -> ObjectiveBounds | None:
    """Assemble the best available ``ω̲ ≤ ω̂ ≤ ω̄`` for this problem."""
    objective = ctx.problem.objective
    if objective is None:
        return None
    if isinstance(objective, ProbabilityObjectiveIR):
        return ObjectiveBounds(0.0, 1.0, sound=True, sources=["probability-range"])

    s_lo, s_hi, sound = objective_value_bounds(ctx)
    l_lo, l_hi = ctx.size_bounds
    if not np.isfinite(l_hi):
        return ObjectiveBounds(-np.inf, np.inf, sound=False, sources=["unbounded"])
    m_lo, m_hi = scenario_total_bounds(s_lo, s_hi, l_lo, l_hi)
    lower, upper = m_lo, m_hi
    sources = ["constraint-agnostic"]

    for constraint in ctx.problem.chance_constraints:
        kind = interaction(objective, constraint)
        if kind == INTERACTION_INDEPENDENT:
            continue
        p = constraint.probability
        agnostic = _component_bounds_agnostic(p, m_lo, m_hi)
        specific = _component_bounds_specific(
            constraint.inner_op, constraint.rhs, p
        )
        l_sat = max(agnostic["L_sat"], specific.get("L_sat", -np.inf))
        l_vio = max(agnostic["L_vio"], specific.get("L_vio", -np.inf))
        u_sat = min(agnostic["U_sat"], specific.get("U_sat", np.inf))
        u_vio = min(agnostic["U_vio"], specific.get("U_vio", np.inf))
        lower = max(lower, l_sat + l_vio)
        upper = min(upper, u_sat + u_vio)
        sources.append(f"constraint-specific({kind})")
    return ObjectiveBounds(lower, upper, sound=sound, sources=sources)


# --- certificates (Propositions 2–5) ----------------------------------------------------


def epsilon_certificate(
    sense: str, omega_q: float | None, bounds: ObjectiveBounds | None
) -> float | None:
    """The certified ``ε^{(q)}`` for a feasible solution, or ``None``.

    ``None`` means no certificate is available (missing bounds, wrong
    signs for the applicable proposition, or infinite bounds).
    """
    if omega_q is None or bounds is None:
        return None
    if sense == SENSE_MAX:
        upper = bounds.upper
        if not np.isfinite(upper):
            return None
        if upper > 0:
            if omega_q <= 0:
                return None
            return max(0.0, upper / omega_q - 1.0)  # Proposition 4
        if omega_q >= 0:
            return None
        return max(0.0, omega_q / upper - 1.0)  # Proposition 5
    lower = bounds.lower
    if not np.isfinite(lower):
        return None
    if lower > 0:
        if omega_q <= 0:
            return None
        return max(0.0, omega_q / lower - 1.0)  # Proposition 2
    if lower == 0.0:
        return None
    if omega_q >= 0:
        return None
    return max(0.0, lower / omega_q - 1.0)  # Proposition 3


def epsilon_min(sense: str, bounds: ObjectiveBounds | None) -> float | None:
    """Smallest ε for which termination is possible (Section 5.4).

    Evaluates the certificate at the far end of the bound interval: a
    user ε below this can never be certified, so SummarySearch requires
    ``ε ≥ ε_min``.
    """
    if bounds is None:
        return None
    edge = bounds.upper if sense != SENSE_MAX else bounds.lower
    return epsilon_certificate(sense, edge, bounds)


# --- "no package exists" (the member bound) -------------------------------------------

#: Chance of a false "no package exists", split evenly (a union bound)
#: over the tuples, the chance constraints and the looks.
PROOF_DELTA = 1e-6
#: Probe-stream scenario counts at which the member bound looks.
PROOF_LOOKS = (64, 128, 256, 512, 1024)


def prove_no_package(ctx) -> dict | None:
    """Proof that no package meets some chance constraint, or None.

    If every package holds at least one tuple (``COUNT(*) >= 1`` is
    forced) and no tuple's value can help a constraint ``SUM(f) ⊙ v``
    (per-row support ``f >= 0`` under ``<=``, ``f <= 0`` under ``>=``),
    then a package meets it only in scenarios where each of its tuples
    alone does, so no package meets it more often than its best single
    tuple.  That tuple's rate is bounded on the probe stream, which
    neither the optimisation nor the validation stream shares, at scenario
    counts :data:`PROOF_LOOKS`: the look stops as unprovable once some
    tuple meets the constraint in ``p·S`` of ``S`` scenarios, and proves
    once the one-sided Clopper–Pearson upper bound on the best tuple's
    rate, at level ``PROOF_DELTA / (N·K·L)``, falls below ``p``.

    Returns ``{"item", "bound", "delta", "scenarios"}``: the constraint,
    the bound, ``PROOF_DELTA`` and the scenarios it was proved on.
    """
    constraints = ctx.problem.chance_constraints
    if ctx.size_bounds[0] < 1 or ctx.model is None or not constraints:
        return None
    level = PROOF_DELTA / (
        ctx.problem.n_vars * len(constraints) * len(PROOF_LOOKS)
    )
    for constraint in constraints:
        op, rhs, p = constraint.inner_op, constraint.rhs, constraint.probability
        try:
            lo, hi = expression_support(ctx, constraint.expr)
        except IntervalError:
            continue
        if not np.all(lo >= 0 if op == OP_LE else hi <= 0):
            continue
        for n in PROOF_LOOKS:
            alone = inner_holds(ctx.probe_matrix(constraint.expr, n), op, rhs)
            k = int(alone.sum(axis=1).max())
            if k >= p * n:
                break
            # The 1 - level quantile of Beta(k + 1, n - k), from its mirror.
            bound = 1.0 - float(betaincinv(n - k, k + 1, level))
            if bound < p:
                return {
                    "item": (
                        f"SUM({render(constraint.expr)}) {op} {rhs:g}"
                        f" WITH PROBABILITY >= {p:g}"
                    ),
                    "bound": bound,
                    "delta": PROOF_DELTA,
                    "scenarios": n,
                }
    return None


def no_package_result(method: str, stats, proof: dict) -> PackageResult:
    """The answer of an evaluation that :func:`prove_no_package` ended."""
    stats.declared_infeasible = True
    return PackageResult(
        package=None,
        feasible=False,
        objective=None,
        method=method,
        stats=stats,
        message=(
            f"no package can reach {proof['item']}: none meets it more"
            " often than its best single tuple, at most"
            f" {proof['bound']:.4g} of the time (delta={proof['delta']:g},"
            f" {proof['scenarios']} probe scenarios)"
        ),
        meta={"infeasibility": proof},
    )
