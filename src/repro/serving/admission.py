"""PCS-style predictive admission control for the cluster frontend.

Under overload an admit-everything frontend makes *every* request miss
its SLA -- the queue grows without bound and the paper's Fig-13 curves
collapse.  PCS ("Towards providing reliable job completion time
predictions using PCS") instead predicts each arrival's completion time
and refuses work it cannot serve in time.  This controller implements
that decision for the multi-NPU cluster:

1. **Predict**: the arrival's completion time is the best device's live
   predicted backlog (:meth:`DeviceSim.predicted_backlog`, the same
   estimate online routing uses) plus the request's own estimate --
   corrected by the online feedback layer
   (:class:`~repro.serving.feedback.PredictionFeedback`) when one is
   attached.
2. **Compare**: the predicted slowdown (turnaround / corrected estimate,
   including time already waited) is checked against the request's QoS
   class SLO, plus the per-class admission budget (a class over its
   share of outstanding admitted work is not accepted while the cluster
   is loaded -- batch cannot starve interactive).
3. **Decide**: within target and budget -> **accept** (the corrected
   estimate is written back into the scheduler-visible context, so
   predictive routing and migration run on corrected numbers too);
   over target with retries left -> **defer** (re-considered after a
   bounded delay, when the backlog may have drained); retries exhausted
   -> **reject** (the cluster never executes the task).

A deferral is never unbounded: each task gets at most
``max_defers`` re-considerations, after which the decision is forced to
accept-or-reject, so the defer loop always terminates.

Every decision is recorded (:class:`AdmissionRecord`) for the metrics
layer (rejection rate, deferral count, per-class attainment).
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, List, Optional, Tuple

from repro.serving.feedback import PredictionFeedback
from repro.serving.slo import DEFAULT_SLOS, ServiceLevel, SLOPolicy, qos_of


class AdmissionDecision(enum.Enum):
    ACCEPT = "accept"
    DEFER = "defer"
    REJECT = "reject"


@dataclasses.dataclass(frozen=True)
class AdmissionRecord:
    """One admission decision, as seen by the controller."""

    task_id: int
    qos: str
    decision: AdmissionDecision
    time_cycles: float
    predicted_slowdown: float
    attempt: int
    #: True when the decision was forced by the class budget, not the SLO.
    budget_limited: bool = False


@dataclasses.dataclass(frozen=True)
class AdmissionConfig:
    """Tunables of the admission state machine.

    ``defer_delay_cycles`` is how long a deferred arrival waits before
    re-consideration (0.5 ms at 700 MHz by default); ``max_defers``
    bounds re-considerations per task.  ``budget_floor_cycles`` keeps
    class budgets from binding while the cluster is nearly empty: shares
    are only enforced once outstanding admitted work exceeds the floor
    (default ~2 mean service times).
    """

    slos: SLOPolicy = dataclasses.field(default_factory=lambda: DEFAULT_SLOS)
    max_defers: int = 3
    defer_delay_cycles: float = 0.5e-3 * 700e6
    budget_floor_cycles: float = 2e6

    def __post_init__(self) -> None:
        if self.max_defers < 0:
            raise ValueError("max_defers must be >= 0")
        if not self.defer_delay_cycles > 0:
            raise ValueError("defer_delay_cycles must be positive")
        if not self.budget_floor_cycles >= 0:
            raise ValueError("budget_floor_cycles must be >= 0")


class AdmissionController:
    """Accept / defer / reject arrivals against per-class SLOs.

    Attach a :class:`PredictionFeedback` to make the controller
    learning-augmented: estimates are corrected before prediction, and
    every observed completion (:meth:`on_complete`) refines the
    correction.  Without feedback the controller runs on the raw
    Algorithm-1 estimates and never mutates them.
    """

    def __init__(
        self,
        config: Optional[AdmissionConfig] = None,
        feedback: Optional[PredictionFeedback] = None,
    ) -> None:
        self.config = config or AdmissionConfig()
        self.feedback = feedback
        self._records: List[AdmissionRecord] = []
        #: Outstanding admitted estimated cycles per QoS class value.
        self._outstanding: Dict[str, float] = {}
        #: Per-task charge to release at completion + raw estimate for
        #: the feedback observation.
        self._charges: Dict[int, Tuple[str, float, float]] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def records(self) -> Tuple[AdmissionRecord, ...]:
        return tuple(self._records)

    def decision_count(self, decision: AdmissionDecision) -> int:
        return sum(1 for r in self._records if r.decision == decision)

    def outstanding_cycles(self, qos: Optional[str] = None) -> float:
        """Admitted-but-uncompleted estimated cycles (one class or all)."""
        if qos is None:
            return sum(self._outstanding.values())
        return self._outstanding.get(qos, 0.0)

    # ------------------------------------------------------------------
    # The decision
    # ------------------------------------------------------------------
    def corrected_estimate(self, task) -> float:
        """The request's estimate after feedback correction (if any)."""
        raw = task.context.estimated_cycles
        if self.feedback is None:
            return raw
        return self.feedback.correct(task.spec.benchmark, raw)

    def placement_query(
        self, task, use_priority: bool, use_sjf: bool
    ) -> Tuple[Optional[int], Optional[float]]:
        """The routing surface: this arrival's class-aware backlog filters.

        Returns ``(min_priority, sjf_within_cycles)`` for
        :meth:`DeviceSim.predicted_backlog` -- the arrival's own priority
        level and feedback-corrected estimate, under the filters the
        cluster says its per-device policy honors
        (:meth:`ClusterScheduler.admission_prediction_filters`).
        ``(None, None)`` means the prediction is the plain total backlog,
        which the cluster may then serve from its O(log d) backlog index
        instead of the class-aware linear fallback.
        """
        min_priority = int(task.spec.priority) if use_priority else None
        sjf_within = self.corrected_estimate(task) if use_sjf else None
        return min_priority, sjf_within

    def decide(
        self,
        task,
        backlog_cycles: float,
        now: float,
        attempt: int = 0,
        marginal_scale: float = 1.0,
    ) -> AdmissionRecord:
        """Decide one (possibly re-considered) arrival.

        ``backlog_cycles`` is the predicted backlog of the best candidate
        device at ``now`` (in-flight deliveries included), exactly what
        online routing minimizes.  ``attempt`` counts prior deferrals of
        this task.  ``marginal_scale`` is the batch-aware cost factor: a
        request joining an open router batch occupies the device for only
        the marginal fraction of its corrected estimate (the rest rides
        the batch's shared work), so its predicted *turnaround* shrinks
        while the slowdown denominator -- what the user experiences
        relative to a solo run -- stays the full estimate.  The record is
        appended to :attr:`records`.
        """
        if marginal_scale <= 0:
            raise ValueError("marginal_scale must be positive")
        level = self.config.slos.level_for(task.spec)
        corrected = max(self.corrected_estimate(task), 1e-9)
        occupancy = corrected * marginal_scale
        waited = max(0.0, now - task.spec.arrival_cycles)
        predicted_turnaround = waited + backlog_cycles + occupancy
        slowdown = predicted_turnaround / corrected
        within_slo = slowdown <= level.slowdown_target
        if level.deadline_cycles is not None:
            within_slo = within_slo and (
                predicted_turnaround <= level.deadline_cycles
            )
        # Waiting only accumulates, so once the waited time *alone*
        # busts the target no future attempt can accept -- deferring
        # again would just delay the reject signal a frontend wants to
        # send fast.
        hopeless = (waited + occupancy) / corrected > level.slowdown_target
        if level.deadline_cycles is not None:
            hopeless = hopeless or (
                waited + occupancy > level.deadline_cycles
            )
        budget_ok = self._budget_allows(level, corrected)
        if within_slo and budget_ok:
            decision = AdmissionDecision.ACCEPT
        elif not hopeless and attempt < self.config.max_defers:
            decision = AdmissionDecision.DEFER
        else:
            decision = AdmissionDecision.REJECT
        record = AdmissionRecord(
            task_id=task.task_id,
            qos=level.qos.value,
            decision=decision,
            time_cycles=now,
            predicted_slowdown=slowdown,
            attempt=attempt,
            budget_limited=within_slo and not budget_ok,
        )
        self._records.append(record)
        return record

    def _budget_allows(self, level: ServiceLevel, corrected: float) -> bool:
        """May this class charge ``corrected`` more cycles right now?

        The budget is an isolation knob, not a quota: it only binds when
        admitting would crowd out *other* classes.  A class filling an
        otherwise-empty cluster is always allowed (work conservation),
        and nothing binds below the floor.
        """
        if level.admission_share >= 1.0:
            return True
        held_before = self._outstanding.get(level.qos.value, 0.0)
        others = sum(self._outstanding.values()) - held_before
        if others <= 0.0:
            return True  # nobody to starve
        total = held_before + others + corrected
        if total <= self.config.budget_floor_cycles:
            return True
        return held_before + corrected <= level.admission_share * total

    # ------------------------------------------------------------------
    # Lifecycle hooks (the cluster loop drives these)
    # ------------------------------------------------------------------
    def admit(self, task) -> None:
        """Charge an accepted task against its class budget.

        When feedback is attached, the corrected estimate is written into
        the scheduler-visible context row, so every downstream consumer
        -- predictive routing, migration candidate ranking, SJF/PREMA
        token thresholds -- runs on the learning-augmented number.  The
        raw estimate is stashed for the completion-time observation.
        """
        qos = qos_of(task.spec).value
        raw = task.context.estimated_cycles
        corrected = self.corrected_estimate(task)
        if self.feedback is not None:
            task.context.estimated_cycles = corrected
        self._outstanding[qos] = self._outstanding.get(qos, 0.0) + corrected
        self._charges[task.task_id] = (qos, corrected, raw)

    def _release_charge(self, task):
        """Pop and release a task's budget charge; returns it (or None).

        Unknown tasks are ignored (a cluster may complete tasks that were
        injected outside the controller, e.g. in admission-off baselines
        sharing a metrics pipeline).
        """
        charge = self._charges.pop(task.task_id, None)
        if charge is None:
            return None
        qos, corrected, _raw = charge
        remaining = self._outstanding.get(qos, 0.0) - corrected
        if remaining <= 1e-9:
            self._outstanding.pop(qos, None)
        else:
            self._outstanding[qos] = remaining
        return charge

    def on_complete(self, task) -> None:
        """Release the task's budget charge and feed the observation back."""
        charge = self._release_charge(task)
        if charge is None:
            return
        _qos, _corrected, raw = charge
        if self.feedback is not None:
            self.feedback.observe(task, predicted_cycles=raw)

    def on_lost(self, task) -> None:
        """Release the charge of a task destroyed by device failure.

        No feedback observation: the task never completed, so it has no
        turnaround to learn from -- feeding a failure-inflated (or
        truncated) sample into the EWMA would poison the corrector for
        every later task of the same model.
        """
        self._release_charge(task)
