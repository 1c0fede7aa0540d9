"""Self-time arithmetic and the outside-in wrapping of the tracer."""

import numpy as np

import tracer


def test_self_time_is_exact_on_nested_spans():
    # parent 1 on [0, 10]; children 2 and 3 overlap (worker threads), 4 is
    # separate; 5 is a grandchild inside 2
    spans = [
        (1, 0, "a", 0.0, 10.0, 1),
        (2, 1, "b", 1.0, 3.0, 1),
        (3, 1, "b", 2.0, 5.0, 1),
        (4, 1, "c", 6.0, 7.0, 1),
        (5, 2, "d", 1.5, 2.0, 1),
    ]
    own = tracer.self_times(spans)
    assert own == {1: 10.0 - 5.0, 2: 2.0 - 0.5, 3: 3.0, 4: 1.0, 5: 0.5}
    table = tracer.aggregate(spans)
    assert table["b"] == {"calls": 2, "points": 2, "self_s": 4.5}
    assert sum(row["self_s"] for row in table.values()) == 5.0 + 4.5 + 1.0 + 0.5


def test_children_outside_the_parent_interval_are_clipped():
    spans = [(1, 0, "a", 0.0, 4.0, 1), (2, 1, "b", 3.0, 6.0, 1)]
    assert tracer.self_times(spans)[1] == 3.0


def test_wraps_every_binding_and_restores_them():
    from stepharm import PotentialConfig, scattering, special

    original = special.digamma
    with tracer.Tracer() as active:
        assert scattering.digamma is special.digamma is not original
        scattering.delta_prime(np.array([3.1, 4.2, 5.3]),
                               PotentialConfig.from_beta0(1.5))
    assert scattering.digamma is special.digamma is original
    by_id = {s[0]: s for s in active.spans}
    digammas = [s for s in active.spans if s[2] == "special.digamma"]
    assert len(digammas) == 2 and all(s[5] == 3 for s in digammas)
    assert all(by_id[s[1]][2] == "scattering.delta_prime" for s in digammas)


def test_worker_thread_spans_nest_under_parallel_map(monkeypatch):
    from stepharm import PotentialConfig, find_resonances

    monkeypatch.setenv("STEPHARM_THREADS", "2")
    with tracer.Tracer() as active:
        find_resonances(PotentialConfig.from_beta0(1.5), 8.0)
    by_id = {s[0]: s for s in active.spans}
    (pool,) = [s for s in active.spans if s[2] == "runtime.parallel_map"]
    refined = [s for s in active.spans if s[2] == "scattering.delay_time"
               and s[1] in by_id and by_id[s[1]][2] == "runtime.parallel_map"]
    assert refined and all(s[1] == pool[0] for s in refined)


def test_spans_round_trip_through_a_file(tmp_path):
    spans = [(1, 0, "a", 0.5, 2.0, 3), (2, 1, "b", 1.0, 1.5, 7)]
    tracer.save_spans(spans, tmp_path / "spans.npz")
    assert tracer.load_spans(tmp_path / "spans.npz") == spans
