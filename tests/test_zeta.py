"""Critical-line evaluators, the one-line helper, and grid caches."""

import importlib.util
import inspect
import io
import math
import pathlib
import random
import struct
import sys
import threading
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetacorr import _rs_series, blocks, cli, dirichlet, moments, primes, sums, zeta
from zetacorr.errors import (
    CacheFormatError,
    ConfigError,
    DomainError,
    ResourceError,
)


def test_em_classical_values():
    got = zeta.zeta_euler_maclaurin(2.0 + 0.0j)
    assert abs(got - math.pi ** 2 / 6.0) <= 1e-10
    got = zeta.zeta_euler_maclaurin(0.0 + 0.0j)
    assert abs(got - (-0.5)) <= 1e-10


def test_em_near_pole_value():
    # zeta(1.1) = 10.58444846495081 (independent multiprecision run)
    got = zeta.zeta_euler_maclaurin(1.1 + 0.0j)
    assert abs(got - 10.58444846495081) <= 1e-9


def _bernoulli_over_factorial(count):
    """B(2k)/(2k)! for k = 1..count by the exact recurrence
    sum_{j<=m} C(m+1, j) B(j) = 0, then rounded."""
    top = 2 * count
    bern = [Fraction(1)]
    for m in range(1, top + 1):
        bern.append(-sum(math.comb(m + 1, j) * bern[j] for j in range(m)) / (m + 1))
    return [float(bern[n] / math.factorial(n)) for n in range(2, top + 1, 2)]


def test_bernoulli_ratios_match_the_recurrence():
    assert zeta._B_RATIO == _bernoulli_over_factorial(len(zeta._B_RATIO))
    assert zeta._B_RATIO[:2] == [1.0 / 12.0, -1.0 / 720.0]


def test_em_oracle_spot_values():
    # frozen from an independent multiprecision evaluation
    cases = [
        (0.2411 - 10.1350j, 1.6475294702803356 + 0.1697169852799268j),
        (-2.0302 + 29.3249j, -31.5174136341318373 - 39.6748211620652314j),
        (3.2881 - 33.5348j, 0.9699392125781040 - 0.1139183463142826j),
        (0.8799 + 9.3320j, 1.3982398866012809 + 0.0634233293334644j),
    ]
    for s, want in cases:
        got = zeta.zeta_euler_maclaurin(s)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_em_conjugate_symmetry():
    rng = random.Random(0xC05)
    for _ in range(20):
        s = complex(rng.uniform(-2.0, 3.0), rng.uniform(0.5, 80.0))
        a = zeta.zeta_euler_maclaurin(s)
        b = zeta.zeta_euler_maclaurin(s.conjugate())
        assert abs(a.conjugate() - b) <= 1e-12 * max(1.0, abs(a))


def test_em_domain_errors():
    with pytest.raises(DomainError):
        zeta.zeta_euler_maclaurin(1.0 + 0.0j)
    with pytest.raises(DomainError):
        zeta.zeta_euler_maclaurin(complex(0.5, 2e5))
    # outside -3 <= Re s <= 100; below it the float64 sum goes wrong
    # (5e-2 relative at -8 + 1e5 i, 5e3 at -10 + 1e5 i) or overflows
    for s in (100.01, -3.01, complex(-8.0, 1e5), complex(-10.0, 1e5),
              complex(-49.9, 10.0)):
        with pytest.raises(DomainError, match="reference strip"):
            zeta.zeta_euler_maclaurin(s)


def test_em_matches_mpmath_at_the_strips_corners():
    for sigma in (-3.0, 0.5, 3.0, 100.0):
        for height in (3.0, 3e3, 1e5):
            for s in (complex(sigma, height), complex(sigma, -height)):
                want = mpmath.zeta(mpmath.mpc(s.real, s.imag))
                got = mpmath.mpc(zeta.zeta_euler_maclaurin(s))
                assert abs(got - want) <= 1e-6 * abs(want), s


def test_em_tail_bound_not_met_is_a_resource_error(monkeypatch):
    monkeypatch.setattr(zeta, "_EM_TAIL", 0.0)
    with pytest.raises(ResourceError, match="tail bound"):
        zeta.zeta_euler_maclaurin(2.0 + 3.0j)
    with pytest.raises(ResourceError, match="tail bound"):
        zeta.zeta_one_line(3.0, 0.5)


def test_first_zero_by_bisection():
    # sign change of Z brackets the first zero near 14.1347251417
    lo, hi = 14.0, 14.3
    assert zeta.riemann_siegel_Z(lo, 6) * zeta.riemann_siegel_Z(hi, 6) < 0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if zeta.riemann_siegel_Z(lo, 6) * zeta.riemann_siegel_Z(mid, 6) <= 0:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    assert abs(root - 14.1347251417346937) <= 1e-6
    assert abs(zeta.riemann_siegel_Z(root, 6)) <= 1e-4
    assert abs(zeta.zeta_euler_maclaurin(complex(0.5, root))) <= 1e-4


def test_rs_cross_validation_spot():
    got = abs(zeta.riemann_siegel_Z(100.0, 6))
    want = abs(zeta.zeta_euler_maclaurin(complex(0.5, 100.0)))
    assert abs(got - want) <= 1e-6
    # independent multiprecision value of |zeta(1/2 + 100i)|
    assert abs(want - 2.6926970566644635) <= 1e-9


def test_rs_sign_constant_between_zeros():
    # no zeros lie in [15, 20]; sign census must be constant there
    t = np.linspace(15.0, 20.0, 101)
    z = zeta.riemann_siegel_Z(t, 4)
    assert np.all(np.sign(z) == np.sign(z[0]))


def test_rs_vectorized_matches_scalar():
    t = np.array([25.0, 111.5, 1234.25])
    vec = zeta.riemann_siegel_Z(t, 4)
    for i, ti in enumerate(t):
        assert vec[i] == zeta.riemann_siegel_Z(float(ti), 4)


def test_rs_range_and_terms_validation():
    with pytest.raises(DomainError):
        zeta.riemann_siegel_Z(5.0, 2)
    with pytest.raises(ConfigError):
        zeta.riemann_siegel_Z(50.0, 7)
    with pytest.raises(ConfigError):
        zeta.riemann_siegel_Z(50.0, -1)


def test_one_line_values():
    assert abs(zeta.zeta_one_line(0.0, 1.0) - math.pi ** 2 / 6.0) <= 1e-9
    assert abs(zeta.zeta_one_line(0.0, 0.1) - 10.58444846495081) <= 1e-8
    assert 0.1 <= abs(zeta.zeta_one_line(100.0, 0.05)) <= 10.0


def test_one_line_even_modulus():
    rng = random.Random(0x11E)
    for _ in range(20):
        d = rng.uniform(0.0, 300.0)
        s = rng.uniform(0.01, 1.0)
        a = abs(zeta.zeta_one_line(d, s))
        b = abs(zeta.zeta_one_line(-d, s))
        assert abs(a - b) <= 1e-12 * max(1.0, a)


def test_one_line_offset_validation():
    with pytest.raises(DomainError):
        zeta.zeta_one_line(0.0, 0.0)
    with pytest.raises(DomainError):
        zeta.zeta_one_line(0.0, 1.5)


def test_grid_shapes_and_coverage():
    grid = zeta.sample_critical_line(100.0, 100.1, 0.05, correction_terms=2)
    assert grid.count == 3
    for k in range(3):
        direct = abs(zeta.riemann_siegel_Z(grid.t_at(k), 2))
        assert abs(grid.values[k] - direct) <= 1e-9
    single = zeta.sample_critical_line(100.0, 100.0, 0.05, correction_terms=2)
    assert single.count == 1
    assert single.t_at(0) == 100.0


def test_grid_last_sample_covers_t1():
    grid = zeta.sample_critical_line(50.0, 51.0, 0.09, correction_terms=2)
    assert grid.t_stop >= 51.0 - 0.09
    assert grid.t_stop <= 51.0 + 0.09


def test_grid_spot_check_against_direct():
    rng = random.Random(0x5A17)
    grid = zeta.sample_critical_line(1000.0, 1010.0, 0.01, correction_terms=4)
    for _ in range(50):
        k = rng.randrange(grid.count)
        direct = abs(zeta.riemann_siegel_Z(grid.t_at(k), 4))
        assert abs(grid.values[k] - direct) <= 1e-8


def test_grid_drops_the_terms_above_each_nodes_cut():
    # N(t) = floor(sqrt(t / 2 pi)) steps from 39 to 40 at 2 pi 40^2 =
    # 10053.1 inside the first sampling chunk, whose last lattice node,
    # 10367.7, has N = 40: the chunk sums 40 terms, and the nodes below
    # the step take the 40th off, also in a window that ends below it
    for t_stop, top in ((10070.0, 40), (10050.0, 39)):
        grid = zeta.sample_critical_line(10040.0, t_stop, 0.005, correction_terms=4)
        t = grid.t_start + np.arange(grid.count) * grid.step
        cut = np.floor(np.sqrt(t / (2.0 * math.pi)))
        assert cut[0] == 39 and cut[-1] == top and grid.count < zeta._GRID_CHUNK
        direct = np.abs(zeta.riemann_siegel_Z(t, 4))
        assert np.max(np.abs(grid.values - direct)) <= 1e-9


def test_grid_chunk_folds_in_its_origin_shift():
    # a chunk from the real number 1000 + 1e-7, given as its float start
    # 1000 and that shift: its main sum, theta and the terms taken off
    # above N(t) (which steps from 12 to 16) all move with the shift
    chunk = sums.UniformGrid(1000.0, 0.01, zeta._GRID_CHUNK)
    got = zeta._z_on_grid(chunk, 1e-7, 0, chunk.count, 4)
    t = 1000.0 + 1e-7 + np.arange(chunk.count) * chunk.step
    assert np.max(np.abs(got - zeta.riemann_siegel_Z(t, 4))) <= 1e-8


def test_grid_and_scattered_paths_against_siegelz():
    # at each height, nodes over four rows of the grid kernel, the last of
    # chunk 0, the first of chunk 1 and one at lattice index -3.  The grid
    # path is compared at the real node t0 + k h, the scattered path at its
    # own float64 node; the grid path's worst error is at most twice the
    # scattered path's, and t_at is within two ulp of the real node
    h = 0.01
    nodes = np.array([-3, 0, 37, 255, 256, 411, 512, 700, 999, 65_535, 65_536])
    for t0 in (1000.37, 100000.37, 1000000.37):
        grid = zeta.sample_critical_line(t0 - 3 * h, t0 + 65_537 * h, h,
                                         anchor=t0, correction_terms=4)
        assert grid.count >= 65_540
        t = np.array([grid.t_at(k) for k in nodes + 3])
        with mpmath.workdps(30):
            real = [mpmath.mpf(t0) + int(k) * mpmath.mpf(h) for k in nodes]
            assert all(abs(float(x - y)) <= 2 * np.spacing(y) for x, y in zip(real, t))
            at_node = np.array([abs(float(mpmath.siegelz(x))) for x in real])
            at_float = np.array([abs(float(mpmath.siegelz(x))) for x in t])
        scattered = np.max(np.abs(np.abs(zeta.riemann_siegel_Z(t, 4)) - at_float))
        on_grid = np.max(np.abs(grid.values[nodes + 3] - at_node))
        assert on_grid <= 2.0 * scattered


def test_grid_workers_bit_identical():
    a = zeta.sample_critical_line(200.0, 260.0, 0.01, correction_terms=2, workers=1)
    b = zeta.sample_critical_line(200.0, 260.0, 0.01, correction_terms=2, workers=3)
    assert np.array_equal(a.values, b.values)
    # 80 001 nodes: two chunks, so more than one thread runs
    one = zeta.sample_critical_line(200.0, 1000.0, 0.01, correction_terms=2, workers=1)
    assert one.count == 80_001 > zeta._GRID_CHUNK
    for workers in (2, 3):
        got = zeta.sample_critical_line(200.0, 1000.0, 0.01,
                                        correction_terms=2, workers=workers)
        assert got.values.tobytes() == one.values.tobytes()


def test_grid_samples_depend_only_on_their_lattice_node():
    # chunks are aligned on the lattice from the anchor, and each sums
    # every n up to the N of its last node, so windows that end 4 464 and
    # 34 464 nodes into the second chunk agree bit for bit
    h = 0.0125
    short = zeta.sample_critical_line(100.0, 100.0 + 69_999 * h, h,
                                      correction_terms=4)
    long = zeta.sample_critical_line(100.0, 100.0 + 99_999 * h, h,
                                     correction_terms=4)
    assert (short.count, long.count) == (70_000, 100_000)
    assert short.values.tobytes() == long.values[:70_000].tobytes()
    # so do windows from nodes -80 and -3 of the lattice from 100, the
    # second ending in the first row of chunk 0
    below = zeta.sample_critical_line(99.0, 100.0 + 69_999 * h, h, anchor=100.0,
                                      correction_terms=4)
    assert below.t_start == 99.0 and below.count == 70_080
    assert below.values[80:].tobytes() == short.values.tobytes()
    near = zeta.sample_critical_line(100.0 - 3 * h, 100.0 + 200 * h, h,
                                     anchor=100.0, correction_terms=4)
    assert near.count == 204
    assert near.values.tobytes() == below.values[77:281].tobytes()


def test_grid_workers_are_threads_sized_by_chunks(monkeypatch):
    one = zeta.sample_critical_line(200.0, 1000.0, 0.01, correction_terms=2, workers=1)

    def no_fork():
        raise AssertionError("sampling forked a process")

    monkeypatch.setattr("os.fork", no_fork)
    two = zeta.sample_critical_line(200.0, 1000.0, 0.01, correction_terms=2, workers=2)
    assert two.values.tobytes() == one.values.tobytes()

    sizes = []

    class InlinePool:
        """Records the pool size and runs every task in the caller."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(zeta, "ThreadPoolExecutor", InlinePool)
    zeta.sample_critical_line(200.0, 260.0, 0.01, correction_terms=2, workers=10 ** 6)
    assert sizes == [1]


@pytest.fixture
def blas_threads():
    """OpenBLAS's (get, set) pair, its count set to 2 for the test so
    that one thread under the sampler shows, and restored after."""
    if sums._OPENBLAS is None:
        pytest.skip("numpy's OpenBLAS thread count is not reachable")
    get, put = sums._OPENBLAS
    before = get()
    put(2)
    yield get
    put(before)


def _recording_chunks(monkeypatch, get, seen, barrier=None):
    """Wrap `zeta._z_on_grid` so that each chunk records the BLAS thread
    count it runs under, after waiting at `barrier` if one is given."""
    z_on_grid = zeta._z_on_grid

    def recorded(*args):
        if barrier is not None:
            barrier.wait(timeout=60)
        seen.append(get())
        return z_on_grid(*args)

    monkeypatch.setattr(zeta, "_z_on_grid", recorded)


def test_sampler_runs_blas_at_one_thread_and_restores_it(blas_threads, monkeypatch):
    get, seen = blas_threads, []
    _recording_chunks(monkeypatch, get, seen)
    for workers in (1, 2):
        # 80 001 nodes: two chunks
        zeta.sample_critical_line(200.0, 1000.0, 0.01,
                                  correction_terms=2, workers=workers)
        assert get() == 2
    assert seen == [1] * 4


def test_sampler_restores_blas_threads_after_a_chunk_raises(blas_threads,
                                                            monkeypatch):
    get = blas_threads

    def fails(*args):
        assert get() == 1
        raise ResourceError("chunk failed")

    monkeypatch.setattr(zeta, "_z_on_grid", fails)
    for workers in (1, 2):
        with pytest.raises(ResourceError):
            zeta.sample_critical_line(200.0, 1000.0, 0.01,
                                      correction_terms=2, workers=workers)
        assert get() == 2


def test_concurrent_samplers_leave_the_blas_count_they_found(blas_threads,
                                                             monkeypatch):
    # four one-chunk samplers are inside their pools at once, under a
    # short switch interval; the last to exit restores the count from
    # before the first
    get, seen, errors = blas_threads, [], []
    _recording_chunks(monkeypatch, get, seen, threading.Barrier(4))

    def sample():
        try:
            zeta.sample_critical_line(200.0, 260.0, 0.01, correction_terms=2, workers=2)
        except Exception as exc:          # reported below
            errors.append(exc)

    threads = [threading.Thread(target=sample) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and seen == [1] * 4
    assert get() == 2


def test_sampler_threads_call_no_public_layer_function(monkeypatch):
    # a tracer that wraps every public module-level function of the
    # layers keeps one stack of spans, so none may run on a sampler thread
    main, off_main = threading.get_ident(), []
    for module in (primes, zeta, dirichlet, blocks, moments, cli):
        for name, fn in list(vars(module).items()):
            if name.startswith("_") or not inspect.isfunction(fn) \
                    or fn.__module__ != module.__name__:
                continue

            def recorded(*args, _fn=fn, _name=name, **kwargs):
                if threading.get_ident() != main:
                    off_main.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, recorded)
    # 80 001 nodes: two chunks on two threads
    zeta.sample_critical_line(200.0, 1000.0, 0.01, correction_terms=2, workers=2)
    assert off_main == []


def test_sampling_without_a_blas_handle_gives_the_same_bytes(monkeypatch):
    capped = zeta.sample_critical_line(200.0, 1000.0, 0.01,
                                       correction_terms=2, workers=2)
    monkeypatch.setattr(sums, "_OPENBLAS", None)
    free = zeta.sample_critical_line(200.0, 1000.0, 0.01, correction_terms=2, workers=2)
    assert free.values.tobytes() == capped.values.tobytes()


def test_rs_depth_has_no_default():
    for fn in (zeta.riemann_siegel_Z, zeta.sample_critical_line):
        param = inspect.signature(fn).parameters["correction_terms"]
        assert param.default is inspect.Parameter.empty
    with pytest.raises(TypeError):
        zeta.sample_critical_line(100.0, 100.1, 0.05)


def test_grid_range_validation():
    with pytest.raises(DomainError):
        zeta.sample_critical_line(5.0, 50.0, 0.05, correction_terms=2)
    with pytest.raises(DomainError):
        zeta.sample_critical_line(100.0, 50.0, 0.05, correction_terms=2)
    with pytest.raises(DomainError):
        zeta.sample_critical_line(50.0, 60.0, 0.2, correction_terms=2)
    with pytest.raises(DomainError):
        zeta.sample_critical_line(50.0, 60.0, 0.0, correction_terms=2)
    with pytest.raises(DomainError):        # no lattice node in the window
        zeta.sample_critical_line(100.0, 100.001, 0.01, anchor=99.995,
                                  correction_terms=2)
    for workers in (0, -1, 1.0):
        with pytest.raises(ConfigError, match="workers"):
            zeta.sample_critical_line(100.0, 100.1, 0.05, correction_terms=2,
                                      workers=workers)


def test_grid_cache_round_trip():
    grid = zeta.sample_critical_line(30.0, 31.0, 0.05, correction_terms=3)
    back = zeta.cache_read(io.BytesIO(zeta.cache_bytes(grid)))
    assert back.t_start == grid.t_start
    assert back.step == grid.step
    assert back.correction_terms == 3
    assert np.array_equal(back.values, grid.values)


def test_grid_cache_rejects_corruption():
    grid = zeta.sample_critical_line(30.0, 31.0, 0.05, correction_terms=2)
    blob = zeta.cache_bytes(grid)
    with pytest.raises(CacheFormatError):
        zeta.cache_read(io.BytesIO(blob[: len(blob) // 2]))
    with pytest.raises(CacheFormatError):
        zeta.cache_read(io.BytesIO(b"GRDZ" + blob[4:]))
    bad_version = blob[:4] + b"\x09\x00\x00\x00" + blob[8:]
    with pytest.raises(CacheFormatError):
        zeta.cache_read(io.BytesIO(bad_version))
    flipped = bytearray(blob)
    flipped[60] ^= 0x01                   # one bit of the third sample
    with pytest.raises(CacheFormatError, match="checksum"):
        zeta.cache_read(io.BytesIO(bytes(flipped)))
    # the version-1 layout: no RS depth, no checksum
    v1 = b"ZGRD" + struct.pack("<IIddQ", 1, 1, grid.t_start, grid.step,
                               grid.count) + grid.values.tobytes()
    with pytest.raises(CacheFormatError, match="unsupported version 1"):
        zeta.cache_read(io.BytesIO(v1))


_BLOB = zeta.cache_bytes(
    zeta.sample_critical_line(30.0, 30.3, 0.05, correction_terms=3))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_any_byte_change_or_truncation_is_refused(data):
    blob = bytearray(_BLOB)
    at = data.draw(st.integers(0, len(blob) - 1), label="at")
    if data.draw(st.booleans(), label="truncate"):
        del blob[at:]
    else:
        blob[at] ^= data.draw(st.integers(1, 255), label="xor")
    with pytest.raises(CacheFormatError):
        zeta.cache_read(io.BytesIO(bytes(blob)))


def test_rs_series_matches_its_generator(tmp_path, capsys):
    # the shipped tables are exactly what the generator's emit step writes
    root = pathlib.Path(__file__).parents[1]
    spec = importlib.util.spec_from_file_location(
        "gen_rs_tables", root / "tools" / "gen_rs_tables.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    out = tmp_path / "_rs_series.py"
    gen.emit(_rs_series.C_SERIES, out)
    shipped = root / "src" / "zetacorr" / "_rs_series.py"
    assert out.read_bytes() == shipped.read_bytes()
