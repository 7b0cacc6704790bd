"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.allocator import THRESHOLD_LEVELS, DiffServeAllocator
from repro.core.demand import DemandEstimator
from repro.core.queueing import LittlesLawModel
from repro.discriminators.deferral import DeferralProfile
from repro.metrics.fid import fid_score, frechet_distance
from repro.metrics.pareto import ParetoPoint, is_pareto_dominated, pareto_frontier
from repro.metrics.slo import SLOReport
from repro.milp.highs import HighsMILPSolver
from repro.milp.exhaustive import ExhaustiveSolver
from repro.milp.problem import MILPProblem
from repro.models.profiles import LatencyProfile
from repro.models.zoo import get_cascade
from repro.simulator.events import EventQueue

# Hypothesis settings: keep runtimes modest, silence fixture-scope warnings.
_SETTINGS = dict(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# ----------------------------------------------------------------- event queue
@given(times=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
@settings(**_SETTINGS)
def test_event_queue_pops_in_nondecreasing_time_order(times):
    q = EventQueue()
    for t in times:
        q.push(t, lambda: None)
    popped = []
    while q:
        popped.append(q.pop().time)
    assert popped == sorted(popped)
    assert len(popped) == len(times)


@given(
    times=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=2, max_size=30),
    cancel_idx=st.integers(min_value=0, max_value=29),
)
@settings(**_SETTINGS)
def test_event_queue_cancellation_preserves_rest(times, cancel_idx):
    q = EventQueue()
    events = [q.push(t, lambda: None) for t in times]
    victim = events[cancel_idx % len(events)]
    q.cancel(victim)
    popped = []
    while q:
        popped.append(q.pop())
    assert victim not in popped
    assert len(popped) == len(times) - 1


# -------------------------------------------------------------------- latency
@given(
    per_image=st.floats(min_value=0.01, max_value=10.0),
    gain=st.floats(min_value=0.0, max_value=0.9),
    b=st.sampled_from([1, 2, 4, 8, 16]),
)
@settings(**_SETTINGS)
def test_latency_profile_invariants(per_image, gain, b):
    profile = LatencyProfile(per_image=per_image, batching_gain=gain)
    assert profile.latency(b) > 0
    assert profile.throughput(b) > 0
    if b > 1:
        # Throughput never decreases with batch size; per-batch latency never decreases.
        assert profile.throughput(b) >= profile.throughput(b // 2) - 1e-12
        assert profile.latency(b) >= profile.latency(b // 2) - 1e-12


# ------------------------------------------------------------------------- FID
@given(
    shift=st.floats(min_value=0.0, max_value=3.0),
    dim=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(**_SETTINGS)
def test_fid_nonnegative_and_monotone_in_mean_shift(shift, dim, seed):
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(300, dim))
    shifted = base + shift
    fid_same = fid_score(base, base)
    fid_shifted = fid_score(shifted, base)
    assert fid_same == pytest.approx(0.0, abs=1e-6)
    assert fid_shifted >= -1e-9
    assert fid_shifted >= fid_same - 1e-9


@given(
    mu=st.lists(st.floats(min_value=-5, max_value=5), min_size=2, max_size=6),
    scale=st.floats(min_value=0.1, max_value=3.0),
)
@settings(**_SETTINGS)
def test_frechet_distance_identity_and_symmetry(mu, scale):
    mu = np.array(mu)
    sigma = scale * np.eye(len(mu))
    assert frechet_distance(mu, sigma, mu, sigma) == pytest.approx(0.0, abs=1e-8)
    other = np.zeros(len(mu))
    d_ab = frechet_distance(mu, sigma, other, np.eye(len(mu)))
    d_ba = frechet_distance(other, np.eye(len(mu)), mu, sigma)
    assert d_ab == pytest.approx(d_ba, rel=1e-6, abs=1e-8)


# ---------------------------------------------------------------------- pareto
@given(
    points=st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=100), st.floats(min_value=0, max_value=100)
        ),
        min_size=1,
        max_size=40,
    )
)
@settings(**_SETTINGS)
def test_pareto_frontier_is_nondominated_and_subset(points):
    pts = [ParetoPoint(x, y) for x, y in points]
    frontier = pareto_frontier(pts)
    assert 1 <= len(frontier) <= len(pts)
    for p in frontier:
        assert not is_pareto_dominated(p, pts)
    # Every non-frontier point with unique coordinates is dominated.
    frontier_coords = {(p.x, p.y) for p in frontier}
    for p in pts:
        if (p.x, p.y) not in frontier_coords:
            assert is_pareto_dominated(p, pts)


# -------------------------------------------------------------------- deferral
@given(
    confidences=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=5, max_size=200),
    thresholds=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=10),
)
@settings(**_SETTINGS)
def test_deferral_fraction_monotone_in_threshold(confidences, thresholds):
    profile = DeferralProfile(confidences=np.array(confidences))
    ts = sorted(thresholds)
    fractions = [profile.fraction(t) for t in ts]
    assert all(0.0 <= f <= 1.0 for f in fractions)
    assert all(b >= a - 1e-12 for a, b in zip(fractions, fractions[1:]))


@given(
    confidences=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=10, max_size=200),
    target=st.floats(min_value=0.0, max_value=1.0),
)
@settings(**_SETTINGS)
def test_deferral_inverse_never_exceeds_target(confidences, target):
    profile = DeferralProfile(confidences=np.array(confidences))
    threshold = profile.threshold_for_fraction(target)
    assert 0.0 <= threshold <= 1.0
    assert profile.fraction(threshold) <= target + 1.0 / len(confidences) + 1e-9


def _scalar_threshold_grid(profile):
    """The allocator's threshold grid, one scalar call per level (the oracle)."""
    thresholds = {0.0, 1.0}
    for q in np.linspace(0.0, 1.0, THRESHOLD_LEVELS):
        thresholds.add(round(profile.threshold_for_fraction(float(q)), 6))
    return [(t, profile.fraction(t)) for t in sorted(thresholds)]


@given(
    # Half-way values at the sixth decimal are where Python's round and
    # np.round disagree.
    confidences=st.lists(
        st.floats(min_value=0.0, max_value=1.0)
        | st.integers(min_value=0, max_value=10**6 - 1).map(lambda k: (k + 0.5) / 1e6),
        min_size=1,
        max_size=60,
    ),
    updates=st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0)),
        max_size=3,
    ),
    ks=st.lists(st.integers(min_value=0, max_value=60), max_size=10),
    thresholds=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=10),
)
@settings(**{**_SETTINGS, "max_examples": 200})
def test_vectorised_threshold_grid_equals_scalar_loop(confidences, updates, ks, thresholds):
    """The vectorised inverse, fractions and grid equal their scalar loops exactly.

    Fractions at ``k / n`` (``n`` calibration confidences) sit where the
    inverse's ``floor(target * n)`` changes value, and online corrections
    shift every target off the calibration grid.
    """
    cascade = get_cascade("sdturbo")
    profile = DeferralProfile(confidences=np.array(confidences))
    allocator = DiffServeAllocator(cascade.light, cascade.heavy, profile)
    for threshold, observed in [(0.5, 0.5), *updates]:
        n = len(profile.confidences)
        fractions = [min(k, n) / n for k in ks] + np.linspace(0.0, 1.0, 21).tolist()
        expected = [profile.threshold_for_fraction(f) for f in fractions]
        assert profile.thresholds_for_fractions(fractions).tolist() == expected
        levels = thresholds + confidences
        assert profile.fractions(levels).tolist() == [profile.fraction(t) for t in levels]
        allocator.refresh_threshold_grid()
        assert allocator.threshold_grid == _scalar_threshold_grid(profile)
        profile.update_online(threshold, observed)


# ----------------------------------------------------------------------- demand
@given(
    rates=st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=50),
    alpha=st.floats(min_value=0.05, max_value=1.0),
)
@settings(**_SETTINGS)
def test_demand_estimate_stays_within_observed_range(rates, alpha):
    est = DemandEstimator(alpha=alpha)
    for arrivals in rates:
        est.observe(arrivals, 10.0)
    observed = [r / 10.0 for r in rates]
    assert min(observed) - 1e-9 <= est.estimate <= max(observed) + 1e-9


# --------------------------------------------------------------------- queueing
@given(
    queue=st.floats(min_value=0, max_value=1e4),
    rate=st.floats(min_value=0.01, max_value=100.0),
    execution=st.floats(min_value=0.0, max_value=60.0),
)
@settings(**_SETTINGS)
def test_littles_law_nonnegative_and_monotone_in_queue(queue, rate, execution):
    model = LittlesLawModel()
    wait = model.waiting_time(queue, rate, execution)
    assert wait >= 0
    assert model.waiting_time(queue * 2, rate, execution) >= wait - 1e-9


# ------------------------------------------------------------------------- SLO
@given(
    latencies=st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=100),
    slo=st.floats(min_value=0.1, max_value=50.0),
    dropped=st.integers(min_value=0, max_value=20),
)
@settings(**_SETTINGS)
def test_violation_ratio_bounded(latencies, slo, dropped):
    report = SLOReport(
        total=len(latencies) + dropped,
        completed=len(latencies),
        violated=sum(latency > slo for latency in latencies),
        dropped=dropped,
    )
    assert 0.0 <= report.violation_ratio <= 1.0


# ------------------------------------------------------------------------ MILP
from repro.milp.problem import Sense, VarType  # noqa: E402


def _random_problem(rng) -> MILPProblem:
    """A random bounded MILP exercising all variable types and senses."""
    problem = MILPProblem("lowering")
    n = int(rng.integers(2, 6))
    for i in range(n):
        vtype = [VarType.CONTINUOUS, VarType.INTEGER, VarType.BINARY][int(rng.integers(0, 3))]
        lower = float(rng.uniform(-3, 2))
        upper = None if (vtype != VarType.BINARY and rng.random() < 0.3) else lower + float(
            rng.uniform(0, 6)
        )
        problem.add_variable(f"v{i}", lower=lower, upper=upper, vtype=vtype)
    problem.set_objective(
        {f"v{i}": float(rng.uniform(-2, 2)) for i in range(n) if rng.random() < 0.8}
    )
    for _ in range(int(rng.integers(1, 5))):
        coeffs = {
            f"v{i}": float(rng.uniform(-2, 2)) for i in range(n) if rng.random() < 0.7
        }
        if not coeffs:
            coeffs = {"v0": 1.0}
        sense = [Sense.LE, Sense.GE, Sense.EQ][int(rng.integers(0, 3))]
        problem.add_constraint(coeffs, sense, float(rng.uniform(-5, 5)))
    return problem


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(**_SETTINGS)
def test_milp_lowering_preserves_bounds_and_integrality(seed):
    """Variable bounds and integrality survive the round-trip to linprog
    matrix form, in the declared variable order."""
    rng = np.random.default_rng(seed)
    problem = _random_problem(rng)
    mats = problem.to_matrices()
    order = mats["order"]
    assert order == list(problem.variables)
    for name, (lo, hi) in zip(order, problem.column_bounds()):
        var = problem.variables[name]
        assert lo == var.lower
        assert hi == var.upper
        if var.vtype == VarType.BINARY:
            assert (lo, hi) == (max(0.0, lo), hi) and hi <= 1.0
        assert var.is_integral == (var.vtype in (VarType.INTEGER, VarType.BINARY))
    # Objective: maximisation is negated into linprog's minimisation vector.
    for i, name in enumerate(order):
        assert mats["c"][i] == pytest.approx(-problem.objective.get(name, 0.0))


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(**_SETTINGS)
def test_milp_lowering_preserves_constraint_senses_and_rows(seed):
    """Every constraint lands in the right matrix block with the right sign:
    LE rows verbatim in A_ub, GE rows negated into A_ub, EQ rows in A_eq —
    in declaration order within each block."""
    rng = np.random.default_rng(seed)
    problem = _random_problem(rng)
    mats = problem.to_matrices()
    index = {name: i for i, name in enumerate(mats["order"])}
    ub_rows = [] if mats["A_ub"] is None else list(zip(mats["A_ub"], mats["b_ub"]))
    eq_rows = [] if mats["A_eq"] is None else list(zip(mats["A_eq"], mats["b_eq"]))
    ub_cursor = eq_cursor = 0
    for con in problem.constraints:
        dense = np.zeros(len(index))
        for name, coeff in con.coefficients.items():
            dense[index[name]] = coeff
        if con.sense == Sense.EQ:
            row, rhs = eq_rows[eq_cursor]
            eq_cursor += 1
            assert np.allclose(row, dense) and rhs == pytest.approx(con.rhs)
        else:
            row, rhs = ub_rows[ub_cursor]
            ub_cursor += 1
            sign = 1.0 if con.sense == Sense.LE else -1.0
            assert np.allclose(row, sign * dense)
            assert rhs == pytest.approx(sign * con.rhs)
    assert ub_cursor == len(ub_rows) and eq_cursor == len(eq_rows)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None)
def test_branch_and_bound_matches_exhaustive_on_random_milps(seed):
    rng = np.random.default_rng(seed)
    problem = MILPProblem("prop")
    n = int(rng.integers(2, 4))
    for i in range(n):
        problem.add_integer(f"x{i}", lower=0, upper=int(rng.integers(2, 5)))
    problem.set_objective({f"x{i}": float(rng.uniform(0.1, 2.0)) for i in range(n)})
    problem.add_le(
        {f"x{i}": float(rng.uniform(0.2, 1.5)) for i in range(n)}, float(rng.uniform(2, 8))
    )
    mip = HighsMILPSolver().solve(problem)
    exh = ExhaustiveSolver().solve(problem)
    assert mip.is_optimal == exh.is_optimal
    if mip.is_optimal:
        assert mip.objective == pytest.approx(exh.objective, abs=1e-6)


# --------------------------------------------- event queue lazy compaction
#: One step of an arbitrary queue workload: push at a time, cancel the k-th
#: live event, cancel the k-th already-cancelled event again (idempotence),
#: or pop the earliest live event.
_QUEUE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.floats(min_value=0.0, max_value=100.0)),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10_000)),
        st.tuples(st.just("recancel"), st.integers(min_value=0, max_value=10_000)),
        st.tuples(st.just("pop"), st.just(0)),
    ),
    min_size=1,
    max_size=120,
)


@given(ops=_QUEUE_OPS)
@settings(**_SETTINGS)
def test_event_queue_compaction_preserves_live_events_under_interleaving(ops):
    """Arbitrary push/cancel/pop interleavings never lose or reorder a live event.

    The compaction threshold is lowered so the lazy-removal rebuild actually
    triggers inside the generated workloads (the production constant needs
    64+ heap entries, beyond what short sequences reach).
    """
    import repro.simulator.events as events_mod

    original = events_mod._COMPACT_MIN_SIZE
    events_mod._COMPACT_MIN_SIZE = 4
    try:
        q = EventQueue()
        live = []  # mirror: every event that is scheduled and not cancelled/popped
        dead = []  # mirror: cancelled events
        order = lambda e: (e.time, e.priority, e.seq)  # noqa: E731
        for op, value in ops:
            if op == "push":
                live.append(q.push(value, lambda: None))
            elif op == "cancel" and live:
                victim = live.pop(value % len(live))
                q.cancel(victim)
                dead.append(victim)
            elif op == "recancel" and dead:
                before = len(q)
                q.cancel(dead[value % len(dead)])  # idempotent no-op
                assert len(q) == before
            elif op == "pop" and live:
                expected = min(live, key=order)
                popped = q.pop()
                assert popped is expected
                live.remove(expected)
            assert len(q) == len(live)
            assert bool(q) == bool(live)
        # Drain: every surviving event comes out, in exact heap order.
        drained = []
        while q:
            drained.append(q.pop())
        assert drained == sorted(live, key=order)
        with pytest.raises(IndexError):
            q.pop()
    finally:
        events_mod._COMPACT_MIN_SIZE = original


# ---------------------------------------------------------------------------
# Bulk scheduling and chunked arrival feeding: schedule_many_at and the
# ArrivalFeeder must be observation-equivalent to per-entry schedule_at for
# ANY chunk size (including 1 and sizes beyond the trace length).  Ties are
# covered where the production paths meet them: sorted trace order (the
# serial ClientSource) pins exact-duplicate times; routed injection relies on
# continuous draws, so the unsorted case is stated over distinct times.
# ---------------------------------------------------------------------------
from repro.core.query import Query  # noqa: E402
from repro.core.system import ArrivalFeeder  # noqa: E402
from repro.simulator.simulation import Simulator  # noqa: E402


@given(
    times=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=60),
    priority=st.integers(min_value=-2, max_value=2),
)
@settings(**_SETTINGS)
def test_schedule_many_at_equals_per_entry_schedule_at(times, priority):
    def run(bulk):
        sim = Simulator(seed=0)
        fired = []
        record = lambda i: fired.append((sim.now, i))  # noqa: E731
        args_seq = [(i,) for i in range(len(times))]
        if bulk:
            sim.schedule_many_at(times, record, args_seq, priority=priority, name="a")
        else:
            for t, args in zip(times, args_seq):
                sim.schedule_at(t, record, priority=priority, name="a", args=args)
        sim.run()
        return fired

    assert run(bulk=True) == run(bulk=False)


class _StubDataset:
    """Minimal dataset protocol for the feeder: id-derived prompt/difficulty."""

    def prompt(self, query_id):
        return f"p{query_id}"

    def difficulty(self, query_id):
        return (query_id % 7) / 10.0


def _fire_chunked(times, chunk):
    sim = Simulator(seed=0)
    fired = []
    feeder = ArrivalFeeder(
        sim,
        _StubDataset(),
        lambda q: fired.append((sim.now, q.query_id, q.arrival_time, q.slo, q.difficulty)),
        5.0,
        chunk_size=chunk,
    )
    feeder.feed(range(len(times)), np.asarray(times, dtype=float))
    sim.run()
    assert feeder.scheduled_arrivals == len(times)
    assert feeder.chunks_fired == -(-len(times) // chunk)  # ceil division
    return fired


def _fire_per_query(times):
    sim = Simulator(seed=0)
    fired = []
    dataset = _StubDataset()
    for query_id, t in enumerate(times):
        query = Query(
            query_id=query_id,
            arrival_time=float(t),
            prompt=dataset.prompt(query_id),
            difficulty=dataset.difficulty(query_id),
            slo=5.0,
        )
        sim.schedule_at(
            float(t),
            lambda q=query: fired.append((sim.now, q.query_id, q.arrival_time, q.slo, q.difficulty)),
            name="arrival",
        )
    sim.run()
    return fired


@given(
    times=st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=40),
    chunk=st.integers(min_value=1, max_value=64),
)
@settings(**_SETTINGS)
def test_chunked_feeding_equals_per_query_on_sorted_traces(times, chunk):
    """Trace replay (sorted times, exact duplicates allowed): any chunk size
    delivers the same queries at the same times in the same order."""
    times = sorted(times)
    assert _fire_chunked(times, chunk) == _fire_per_query(times)


@given(
    times=st.lists(
        st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=40, unique=True
    ),
    chunk=st.integers(min_value=1, max_value=64),
)
@settings(**_SETTINGS)
def test_chunked_feeding_equals_per_query_on_unsorted_distinct_times(times, chunk):
    """Routed injection (locally unordered, continuous draws): equivalence
    holds for any chunk size, including chunks straddling the reordering."""
    assert _fire_chunked(times, chunk) == _fire_per_query(times)


@given(
    times=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=50),
)
@settings(**_SETTINGS)
def test_profiler_is_pure_observation(times):
    """profile=True never changes what fires or when; it only counts."""

    def run(profile):
        sim = Simulator(seed=0, profile=profile)
        fired = []
        record = lambda i: fired.append((sim.now, i))  # noqa: E731
        sim.schedule_many_at(times, record, [(i,) for i in range(len(times))], name="tick")
        sim.run()
        return fired, sim.profile_snapshot()

    fired_off, profile_off = run(profile=False)
    fired_on, profile_on = run(profile=True)
    assert fired_on == fired_off
    assert profile_off == {}
    assert profile_on["tick"][0] == len(times)
    assert profile_on["tick"][1] >= 0.0
