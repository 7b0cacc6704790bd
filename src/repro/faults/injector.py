"""Fault injector + self-healing heartbeat.

``FaultInjector`` is a normal simulation :class:`~repro.simulator.simulation.Actor`
constructed by :meth:`ServingSimulation.prepare` when a
:class:`~repro.faults.plan.FaultPlan` is attached.  At ``start()`` it turns
the plan into ordinary scheduled events (crashes, slowdowns, bandwidth
windows, solver-timeout windows); stochastic faults (the crash storm) sample
times and targets from the sim's named ``faults`` random stream, so the whole
scenario is a pure function of (seed, plan).

With recovery enabled the injector also runs the *failure detector*: a
periodic heartbeat that

* detects crashed workers, requeues their stranded in-flight work through the
  load balancer's bounded retry-with-exponential-backoff path,
* quarantines stragglers whose slowdown exceeds the configured threshold
  (and reinstates them when the slowdown clears),
* shrinks/regrows the fleet via ``Controller.set_fleet`` and triggers a
  warm-started repair re-solve whenever the healthy fleet shape changes.

The controller additionally gets a :class:`~repro.faults.plan_store.PlanStore`
so an infeasible repair re-solve (or a solver-timeout window) degrades to the
last-known-good plan clamped to the surviving fleet instead of panicking.
Straggler detection reads ``worker.slowdown`` directly — a simulator shortcut
standing in for the latency-outlier detection a real control plane would run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

from repro.core.config import FleetSpec
from repro.faults.plan import (
    BandwidthDegradation,
    CrashStorm,
    FaultPlan,
    RegionPartition,
    SolverTimeout,
    SpotRevocation,
    StragglerSlowdown,
    WorkerCrash,
)
from repro.faults.plan_store import PlanStore
from repro.simulator.simulation import Actor, Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.controller import Controller
    from repro.core.load_balancer import LoadBalancer
    from repro.core.results import ResultCollector
    from repro.core.worker import WorkItem, Worker

__all__ = ["FaultInjector"]


class FaultInjector(Actor):
    """Schedules a fault plan's events and (optionally) heals the damage."""

    def __init__(
        self,
        sim: Simulator,
        plan: FaultPlan,
        *,
        workers: List["Worker"],
        load_balancer: "LoadBalancer",
        controller: "Controller",
        collector: "ResultCollector",
    ) -> None:
        super().__init__(sim, name="fault-injector")
        self.plan = plan
        self.workers = list(workers)
        self.load_balancer = load_balancer
        self.controller = controller
        self.collector = collector
        self.allocator = getattr(controller.policy, "allocator", None)

        #: (time, description) log of everything injected/repaired.
        self.log: List[Tuple[float, str]] = []
        self.detected_crashes = 0
        self.repairs = 0
        self._stranded: List["WorkItem"] = []
        self._known_failed: set = set()
        self._slow_quarantined: set = set()
        self._decommissioned: set = set()
        self._full_fleet: FleetSpec = controller.active_fleet

        if plan.recovery is not None:
            recovery = plan.recovery
            load_balancer.retry_budget = recovery.retry_budget
            load_balancer.backoff_base = recovery.backoff_base
            load_balancer.on_retry = collector.record_retry
            controller.plan_store = PlanStore()
            for worker in self.workers:
                worker.on_fail = self._strand

    # --------------------------------------------------------------- lifecycle
    def start(self) -> None:
        for fault in self.plan.faults:
            self._schedule_fault(fault)
        if self.plan.recovery is not None:
            self.sim.schedule(
                self.plan.recovery.heartbeat_period, self._heartbeat, name="heartbeat"
            )

    def _schedule_fault(self, fault) -> None:
        if isinstance(fault, WorkerCrash):
            worker = self._worker(fault.worker)
            self.sim.schedule_at(fault.at, lambda w=worker: self._crash(w), name="fault-crash")
        elif isinstance(fault, SpotRevocation):
            worker = self._worker(fault.worker)
            if self.plan.recovery is not None:
                self.sim.schedule_at(
                    fault.at, lambda w=worker: self._decommission(w), name="fault-revoke-notice"
                )
            self.sim.schedule_at(
                fault.at + fault.notice, lambda w=worker: self._crash(w), name="fault-revoke"
            )
        elif isinstance(fault, StragglerSlowdown):
            worker = self._worker(fault.worker)
            self.sim.schedule_at(
                fault.at,
                lambda w=worker, f=fault.factor: self._set_slowdown(w, f),
                name="fault-straggler",
            )
            self.sim.schedule_at(
                fault.at + fault.duration,
                lambda w=worker: self._set_slowdown(w, 1.0),
                name="fault-straggler-end",
            )
        elif isinstance(fault, BandwidthDegradation):
            worker = self._worker(fault.worker)
            self.sim.schedule_at(
                fault.at,
                lambda w=worker, f=fault.factor: self._degrade_bandwidth(w, f),
                name="fault-bandwidth",
            )
            self.sim.schedule_at(
                fault.at + fault.duration,
                lambda w=worker: self._restore_bandwidth(w),
                name="fault-bandwidth-end",
            )
        elif isinstance(fault, SolverTimeout):
            self.sim.schedule_at(fault.at, self._solver_timeout_on, name="fault-solver")
            self.sim.schedule_at(
                fault.at + fault.duration, self._solver_timeout_off, name="fault-solver-end"
            )
        elif isinstance(fault, CrashStorm):
            rng = self.sim.rng.stream("faults")
            times = fault.at + rng.random(fault.count) * fault.duration
            targets = rng.integers(0, len(self.workers), fault.count)
            for t, target in zip(times, targets):
                worker = self.workers[int(target)]
                self.sim.schedule_at(
                    float(t), lambda w=worker: self._crash(w), name="fault-storm-crash"
                )
        elif isinstance(fault, RegionPartition):
            pass  # epoch-synchronous; consumed by the ShardSupervisor, not here
        else:  # pragma: no cover - FaultPlan validates membership
            raise TypeError(f"unknown fault {fault!r}")

    def _worker(self, index: int) -> "Worker":
        # Catalog plans name small indices; wrap so they fit any fleet size.
        return self.workers[index % len(self.workers)]

    # ------------------------------------------------------------------ faults
    def _crash(self, worker: "Worker") -> None:
        if worker.failed:
            return
        orphans = worker.fail()
        self.log.append((self.now, f"{worker.name} crashed ({len(orphans)} in-flight orphaned)"))
        if self.plan.recovery is None:
            # Unmitigated: orphaned work is simply lost (counted as drops);
            # future misroutes to the dead worker drop at enqueue.
            for item in orphans:
                self.load_balancer._on_worker_drop(item)
        else:
            # Stranded until the heartbeat detects the crash.
            self._stranded.extend(orphans)

    def _decommission(self, worker: "Worker") -> None:
        """Revocation notice: drain and fence the worker before the kill."""
        if worker.failed or worker in self._decommissioned:
            return
        self._decommissioned.add(worker)
        # Fence through the Controller so a same-epoch autoscaler scale-out
        # can never re-activate a machine the market already reclaimed.
        self.controller.fence_worker(worker)
        drained = worker.drain_queue()
        self.log.append((self.now, f"{worker.name} decommissioned ({len(drained)} drained)"))
        for item in drained:
            self.load_balancer.requeue(item.query, stage=item.stage)
        self._repair_fleet()

    def _set_slowdown(self, worker: "Worker", factor: float) -> None:
        if worker.failed:
            return
        worker.slowdown = factor
        self.log.append((self.now, f"{worker.name} slowdown -> {factor:g}x"))

    def _degrade_bandwidth(self, worker: "Worker", factor: float) -> None:
        if worker.failed:
            return
        if worker.resources is not None:
            channel = worker.resources.channel
            if not hasattr(channel, "_nominal_capacity_gbps"):
                channel._nominal_capacity_gbps = channel.capacity_gbps
            channel.set_capacity(channel._nominal_capacity_gbps / factor)
        else:
            # Legacy reload model: the fixed reload delay stretches instead.
            if not hasattr(worker, "_nominal_reload_latency"):
                worker._nominal_reload_latency = worker.reload_latency
            worker.reload_latency = worker._nominal_reload_latency * factor
        self.log.append((self.now, f"{worker.name} bandwidth degraded {factor:g}x"))

    def _restore_bandwidth(self, worker: "Worker") -> None:
        if worker.resources is not None:
            nominal = getattr(worker.resources.channel, "_nominal_capacity_gbps", None)
            if nominal is not None:
                worker.resources.channel.set_capacity(nominal)
        else:
            nominal = getattr(worker, "_nominal_reload_latency", None)
            if nominal is not None:
                worker.reload_latency = nominal
        self.log.append((self.now, f"{worker.name} bandwidth restored"))

    def _solver_timeout_on(self) -> None:
        if self.allocator is not None:
            self.allocator.force_solve_timeout = True
            self.log.append((self.now, "solver timeout forced"))

    def _solver_timeout_off(self) -> None:
        if self.allocator is not None:
            self.allocator.force_solve_timeout = False
            self.log.append((self.now, "solver timeout cleared"))

    # ---------------------------------------------------------------- recovery
    def _strand(self, item: "WorkItem") -> None:
        """A query reached a dead worker before the detector caught up."""
        self._stranded.append(item)

    def _heartbeat(self) -> None:
        recovery = self.plan.recovery
        assert recovery is not None
        fleet_dirty = False

        healthy = sum(1 for w in self.workers if not w.failed and not w.quarantined)
        for worker in self.workers:
            if worker.failed and worker not in self._known_failed:
                self._known_failed.add(worker)
                self.detected_crashes += 1
                fleet_dirty = True
            if worker.failed or worker in self._decommissioned:
                continue
            slow = worker.slowdown > recovery.straggler_threshold
            if slow and worker not in self._slow_quarantined:
                if healthy <= 1:
                    # Never fence the last healthy worker — a slow fleet
                    # beats an empty one.  Retried on the next heartbeat in
                    # case capacity comes back.
                    continue
                healthy -= 1
                self._slow_quarantined.add(worker)
                worker.quarantined = True
                fleet_dirty = True
                self.log.append((self.now, f"{worker.name} quarantined (straggler)"))
            elif not slow and worker in self._slow_quarantined:
                self._slow_quarantined.discard(worker)
                worker.quarantined = False
                healthy += 1
                fleet_dirty = True
                self.log.append((self.now, f"{worker.name} reinstated"))

        if healthy == 0 and self._slow_quarantined:
            # A crash after the quarantine decision can leave the fleet
            # empty; un-fence the stragglers — a slow fleet beats none.
            # (Sorted for determinism: sets of workers hash by identity.)
            for worker in sorted(self._slow_quarantined, key=lambda w: w.worker_id):
                if worker.failed or worker in self._decommissioned:
                    continue
                self._slow_quarantined.discard(worker)
                worker.quarantined = False
                healthy += 1
                fleet_dirty = True
                self.log.append((self.now, f"{worker.name} reinstated (last resort)"))

        if self._stranded:
            stranded, self._stranded = self._stranded, []
            for item in stranded:
                self.load_balancer.requeue(item.query, stage=item.stage)

        if fleet_dirty:
            self._repair_fleet()
        self.sim.schedule(recovery.heartbeat_period, self._heartbeat, name="heartbeat")

    def _repair_fleet(self) -> None:
        """Shrink/regrow the active fleet to the healthy workers and re-solve.

        Per class the repaired count is ``min(healthy, fleet_target)``: the
        Controller's :attr:`~repro.core.controller.Controller.fleet_target`
        is what the autoscaler currently wants, so repairs never silently
        activate pre-provisioned spares.  Without an autoscaler the target
        *is* the full fleet, making the clamp an identity (legacy behaviour).
        """
        target = self.controller.fleet_target
        devices = []
        for device, _count in self._full_fleet.devices:
            healthy = sum(
                1
                for w in self.controller._workers_by_class.get(device.name, [])
                if not w.failed and not w.quarantined
            )
            count = min(healthy, target.count_for(device.name))
            if count > 0:
                devices.append((device, count))
        if not devices:
            # Nothing left to plan for; leave the plan as-is and let queries
            # drop — a dead cluster should degrade, not crash.
            self.log.append((self.now, "no healthy workers left; skipping repair"))
            return
        fleet = FleetSpec(devices=tuple(devices))
        if fleet.token() == self.controller.active_fleet.token():
            return
        self.controller.set_fleet(fleet, reason="repair")
        self.controller.repairing = True
        try:
            self.controller.replan(warm_start=self.controller.current_plan)
        finally:
            self.controller.repairing = False
        self.repairs += 1
        self.log.append((self.now, f"fleet repaired -> {fleet.token()}"))
