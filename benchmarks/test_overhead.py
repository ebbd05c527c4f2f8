"""The overhead gate's cells and its check, at tier-1 sizes and with no timing."""

import pytest

import overhead


@pytest.fixture(scope="module")
def outcomes():
    _, outcomes = overhead.measure(requests=300, rounds=1)
    return outcomes


@pytest.mark.parametrize("cell", overhead.SAME_SCHEDULE)
def test_same_schedule_cells_reproduce_fifo(outcomes, cell):
    assert outcomes[cell] == outcomes["fifo"]
    assert outcomes["fifo"][:2] == (300, 0)


def test_edf_cell_sheds_so_it_times_admission():
    cluster, _, slo = overhead.plan_streams(1000)
    engine = overhead.simulator(cluster, "edf")
    engine.run(slo)
    report = engine.build_report(overhead.MODEL, [])
    assert report.num_rejected > 0
    assert report.num_completed + report.num_rejected == 1000


def test_every_cell_but_fifo_has_a_ceiling():
    assert set(overhead.CEILINGS) == set(overhead.CELLS) - {"fifo"}


def _ratios(**changed):
    ratios = {cell: ceiling for cell, ceiling in overhead.CEILINGS.items()}
    ratios.update(changed, fifo=1.0)
    return ratios


def _outcomes(**changed):
    outcomes = {cell: (300, 0, 33.9) for cell in overhead.CELLS}
    outcomes.update(changed)
    return outcomes


def test_check_passes_at_the_ceilings():
    assert overhead.check(_ratios(), _outcomes()) == []


def test_check_flags_a_ratio_above_its_ceiling():
    ratios = _ratios(memory=overhead.CEILINGS["memory"] * 1.01)
    [failure] = overhead.check(ratios, _outcomes())
    assert failure.startswith("memory:")


def test_check_flags_a_changed_schedule():
    [failure] = overhead.check(_ratios(), _outcomes(elastic=(299, 0, 33.9)))
    assert failure.startswith("elastic: outcome")


def test_check_ignores_outcomes_of_cells_that_schedule_differently():
    assert overhead.check(_ratios(), _outcomes(batch=(1, 2, 3), edf=(4, 5, 6))) == []


def test_ratios_are_taken_within_each_round():
    true = {cell: 1.0 + position / 10 for position, cell in enumerate(overhead.CELLS)}
    # Each round runs uniformly faster or slower; within a round the cells
    # keep their true ratio to fifo.
    rounds = [{cell: speed * ratio for cell, ratio in true.items()} for speed in (1.0, 1.3, 0.8)]
    assert overhead.ratios(rounds) == pytest.approx(true)


def test_a_slow_fifo_round_does_not_lower_any_ratio():
    true = {cell: 1.0 + position / 10 for position, cell in enumerate(overhead.CELLS)}
    rounds = [dict(true) for _ in range(overhead.ROUNDS)]
    rounds[2]["fifo"] = 1.3  # one fifo run lands 30 % slow
    ratios = overhead.ratios(rounds)
    for cell in overhead.CELLS:
        assert ratios[cell] >= true[cell] - 1e-12, cell
