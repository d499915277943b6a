import tracemalloc

import numpy as np
import pytest

from ofdm_pcs.air import AIR_CHUNK, AirConfig, air_mc
from ofdm_pcs.ambiguity import AF_DRAWS, default_nu_grid, default_tau_grid, mc_average_af
from ofdm_pcs.constellation import make_qam
from ofdm_pcs.detect import PD_CHUNK, CfarConfig, DetectionScenario, pd_experiment
from ofdm_pcs.mc import map_chunks, map_ordered
from ofdm_pcs.ofdm import OfdmConfig

CFG = OfdmConfig(num_subcarriers=64, subcarrier_spacing=1.5625e6, oversampling=4)
CFG16 = OfdmConfig(num_subcarriers=16, subcarrier_spacing=1.0, oversampling=8)


def draw(rng, count):
    return rng.standard_normal(count)


def test_map_ordered_keeps_item_order():
    items = list(range(23))
    assert map_ordered(lambda x: x * x, items, 4) == [x * x for x in items]
    assert map_ordered(lambda x: x, [], 3) == []


@pytest.mark.parametrize("threads", [0, -3])
def test_map_ordered_rejects_thread_count_below_one(threads):
    with pytest.raises(ValueError, match="threads"):
        map_ordered(lambda x: x, [1, 2], threads)


@pytest.mark.parametrize(("total", "chunk"), [(10, 3), (9, 3), (2, 5), (1, 1)])
def test_chunk_counts_sum_to_total(total, chunk):
    counts = map_chunks(lambda rng, count: count, 4, total, chunk, 1)
    assert sum(counts) == total
    assert all(c == chunk for c in counts[:-1]) and 1 <= counts[-1] <= chunk


@pytest.mark.parametrize("threads", [2, 3, 8])
def test_map_chunks_thread_invariant(threads):
    # 4 chunks with an uneven last one; 8 threads is more than there are chunks.
    serial = map_chunks(draw, 11, 10, 3, 1)
    parallel = map_chunks(draw, 11, 10, 3, threads)
    assert len(serial) == 4
    assert all(np.array_equal(a, b) for a, b in zip(serial, parallel, strict=True))


def test_chunk_k_is_child_k_and_seed_object_is_not_advanced():
    # A spawned SeedSequence, as pd_experiment hands its trial draws to map_chunks.
    seed = np.random.SeedSequence(7).spawn(3)[1]
    first = map_chunks(draw, seed, 10, 3, 1)
    second = map_chunks(draw, seed, 10, 3, 1)
    assert seed.n_children_spawned == 0
    fresh = np.random.SeedSequence(7).spawn(3)[1].spawn(4)
    for k, (a, b) in enumerate(zip(first, second, strict=True)):
        assert np.array_equal(a, b)
        assert np.array_equal(a, np.random.default_rng(fresh[k]).standard_normal(a.size))
    as_int = map_chunks(draw, 7, 10, 3, 1)
    as_seq = map_chunks(draw, np.random.SeedSequence(7), 10, 3, 1)
    assert all(np.array_equal(a, b) for a, b in zip(as_int, as_seq, strict=True))


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_stays_bounded_in_trial_count():
    def pd(trials):
        scn = DetectionScenario(
            cfg=CFG, constellations=(make_qam(16),), snr_grid_db=np.array([0.0, 10.0]),
            trials=trials, cfar=CfarConfig(alpha=20.0), seed=3,
        )
        return lambda: pd_experiment(scn)

    def air(draws):
        return lambda: air_mc(make_qam(16), AirConfig(0.1, draws, 5))

    def af(nus):
        taus = default_tau_grid(CFG16, 17)
        return lambda trials: lambda: mc_average_af(CFG16, make_qam(16), taus, nus, trials, 5)

    runs = {
        "pd": (pd, PD_CHUNK), "air": (air, AIR_CHUNK),
        "af one Doppler": (af(np.array([0.0])), AF_DRAWS),
        "af 5 Dopplers": (af(default_nu_grid(CFG16, 5)), AF_DRAWS),
    }
    for name, (run, unit) in runs.items():
        run(unit)()  # warm-up outside the trace
        one, eight = _traced_peak(run(unit)), _traced_peak(run(8 * unit))
        assert eight <= 1.15 * one, (name, one, eight)


def test_pd_thread_invariant_across_chunks():
    scn = DetectionScenario(
        cfg=CFG, constellations=(make_qam(16),), snr_grid_db=np.array([0.0, 6.0]),
        trials=2 * PD_CHUNK + 37, cfar=CfarConfig(alpha=20.0), seed=5,
    )
    serial = pd_experiment(scn, threads=1)
    assert all(map(np.array_equal, pd_experiment(scn, threads=2), serial))
    assert all(map(np.array_equal, pd_experiment(scn, threads=4), serial))
    assert 0.0 < serial.pd[0, 0] < serial.pd[0, 1] <= 1.0
