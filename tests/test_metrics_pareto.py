"""Tests for Pareto-frontier utilities."""


from repro.metrics.pareto import ParetoPoint, is_pareto_dominated, pareto_frontier


def test_dominated_point_detected():
    a = ParetoPoint(1.0, 1.0)
    b = ParetoPoint(2.0, 2.0)
    assert is_pareto_dominated(b, [a, b])
    assert not is_pareto_dominated(a, [a, b])


def test_frontier_removes_dominated_points():
    points = [
        ParetoPoint(1.0, 5.0),
        ParetoPoint(2.0, 3.0),
        ParetoPoint(3.0, 4.0),  # dominated by (2, 3)
        ParetoPoint(4.0, 1.0),
    ]
    frontier = pareto_frontier(points)
    assert [(p.x, p.y) for p in frontier] == [(1.0, 5.0), (2.0, 3.0), (4.0, 1.0)]


def test_frontier_with_maximised_x():
    # Maximise throughput (x), minimise FID (y): Figure 1c orientation.
    points = [
        ParetoPoint(10.0, 20.0),
        ParetoPoint(20.0, 21.0),
        ParetoPoint(15.0, 25.0),  # dominated: less throughput, worse FID than (20, 21)? no
        ParetoPoint(5.0, 30.0),   # dominated by (10, 20)
    ]
    frontier = pareto_frontier(points, minimize_x=False, minimize_y=True)
    coords = [(p.x, p.y) for p in frontier]
    assert (5.0, 30.0) not in coords
    assert (10.0, 20.0) in coords
    assert (20.0, 21.0) in coords


def test_equal_points_are_not_mutually_dominated():
    a = ParetoPoint(1.0, 1.0, payload="a")
    b = ParetoPoint(1.0, 1.0, payload="b")
    assert not is_pareto_dominated(a, [a, b])
    frontier = pareto_frontier([a, b])
    assert len(frontier) == 1  # duplicates collapsed


def test_frontier_sorted_by_x():
    points = [ParetoPoint(3.0, 1.0), ParetoPoint(1.0, 3.0), ParetoPoint(2.0, 2.0)]
    frontier = pareto_frontier(points)
    xs = [p.x for p in frontier]
    assert xs == sorted(xs)


def test_frontier_of_empty_set():
    assert pareto_frontier([]) == []


def test_payload_preserved():
    points = [ParetoPoint(1.0, 1.0, payload={"cfg": 1})]
    assert pareto_frontier(points)[0].payload == {"cfg": 1}
