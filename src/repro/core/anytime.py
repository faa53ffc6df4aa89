"""Anytime evaluation envelope: deadline verdict + optimality gap.

The paper's core trade is optimality for interactive speed; the QoS
tier makes that trade explicit per query.  When a ``deadline_ms`` budget
is set (``SPQConfig.deadline_ms``), evaluation is *anytime*: on expiry
the best validated incumbent found so far is returned — never a bare
timeout — together with a **relative optimality gap** bounding how far
that incumbent can be from the (unknown) optimum.

:class:`AnytimeResult` is the envelope attached to every
:class:`~repro.core.package.PackageResult` by the engine (the broker,
the HTTP JSON payload, and ``repro run`` all read it from there).  The gap contract:

* ``gap == 0.0`` whenever the evaluation terminated on its own success
  criterion (the exact path finished; the deadline, if any, was met);
* on truncation, ``gap`` is the certified relative distance between the
  incumbent's validated objective and the best known bound on the
  optimum — the ε certificate of Section 5.4 when available, else the
  bound-interval fallback below;
* ``gap is None`` only when there is no incumbent at all (no package),
  or no finite bound exists for a truncated run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..silp.model import SENSE_MAX


@dataclass
class AnytimeResult:
    """Deadline verdict for one evaluation.

    ``deadline_met`` is ``True`` when no deadline was requested or when
    the evaluation finished before the budget expired; ``False`` means
    the result is a truncated, best-effort incumbent.  ``gap`` follows
    the module-level contract.  ``stages_truncated`` names the pipeline
    stages cut short (e.g. ``("csa",)``, ``("refine",)``).
    """

    deadline_ms: float | None
    deadline_met: bool
    elapsed_ms: float
    gap: float | None
    incumbent_objective: float | None = None
    best_bound: float | None = None
    stages_truncated: tuple = field(default_factory=tuple)
    #: Per-query resource accounting
    #: (:class:`repro.obs.resources.QueryResourceProbe`), attached by
    #: the engine after finalization; None for evaluators invoked
    #: outside the engine.
    resources: dict | None = None

    def as_dict(self) -> dict:
        """JSON-ready document (HTTP payload, trace attachments)."""
        return {
            "deadline_ms": self.deadline_ms,
            "deadline_met": bool(self.deadline_met),
            "elapsed_ms": round(float(self.elapsed_ms), 3),
            "gap": None if self.gap is None else float(self.gap),
            "incumbent_objective": (
                None
                if self.incumbent_objective is None
                else float(self.incumbent_objective)
            ),
            "best_bound": (
                None if self.best_bound is None else float(self.best_bound)
            ),
            "stages_truncated": list(self.stages_truncated),
            "resources": self.resources,
        }


def relative_gap(incumbent: float, bound: float) -> float:
    """Relative distance from ``incumbent`` to ``bound`` (symmetric form).

    ``|incumbent − bound| / max(1, |incumbent|)`` — the denominator clamp
    keeps the gap finite and scale-free around zero objectives, matching
    the gap HiGHS results report (``solver/highs.py``).
    """
    return abs(float(incumbent) - float(bound)) / max(1.0, abs(float(incumbent)))


def _truncation_gap(result) -> tuple[float | None, float | None]:
    """(gap, best_bound) for a truncated result with an incumbent.

    Prefers the ε certificate already computed during validation (it
    *is* a relative incumbent-to-bound distance, Propositions 2–5),
    then a truncated MILP solve's own gap certificate
    (``meta["solver_gap"]``), then the objective-bound interval recorded
    in the result meta; a feasibility-only query (no objective) has gap
    0 by definition once its incumbent validated.
    """
    if result.objective is None:
        return (0.0 if result.feasible else None), None
    bounds = result.meta.get("bounds")
    sense = result.meta.get("objective_sense")
    bound = None
    if bounds is not None:
        edge = bounds.upper if sense == SENSE_MAX else bounds.lower
        if edge is not None and np.isfinite(edge):
            bound = float(edge)
    eps = result.epsilon_upper
    if eps is not None and np.isfinite(eps):
        return max(0.0, float(eps)), bound
    solver_gap = result.meta.get("solver_gap")
    if solver_gap is not None and np.isfinite(solver_gap):
        # A truncated MILP solve certified its own incumbent-to-bound
        # distance (HiGHS's dual bound); reuse it verbatim so the
        # envelope matches the solver's result.
        solver_bound = result.meta.get("solver_best_bound")
        if solver_bound is not None and np.isfinite(solver_bound):
            bound = float(solver_bound)
        return max(0.0, float(solver_gap)), bound
    if bound is not None:
        return relative_gap(result.objective, bound), bound
    return None, None


def finalize_anytime(result, config, elapsed_s: float) -> None:
    """Attach the :class:`AnytimeResult` envelope to one evaluation.

    Called by the engine after every dispatch, deadline or not, so
    downstream consumers (HTTP payloads, the soak script's invariants)
    can rely on the envelope always being present.  Idempotent per
    result: an envelope attached deeper in the stack (e.g. by the scale
    driver) is kept.
    """
    if result.anytime is not None:
        return
    elapsed_ms = float(elapsed_s) * 1000.0
    timed_out = bool(result.stats is not None and result.stats.timed_out)
    deadline_met = not (
        config.deadline_ms is not None
        and (timed_out or elapsed_ms > config.deadline_ms)
    )
    truncated = tuple(result.meta.get("truncated_stages", ()))
    if not timed_out:
        # Only a package that validated is certified; an infeasible one
        # has no distance to any optimum to report.
        gap: float | None = (
            0.0 if result.package is not None and result.feasible else None
        )
        bound = None
    else:
        gap, bound = _truncation_gap(result)
    result.anytime = AnytimeResult(
        deadline_ms=config.deadline_ms,
        deadline_met=deadline_met,
        elapsed_ms=elapsed_ms,
        gap=gap,
        incumbent_objective=result.objective,
        best_bound=bound,
        stages_truncated=truncated,
    )
