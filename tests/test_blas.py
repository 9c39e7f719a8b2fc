"""One-thread BLAS budget: restore on every exit, no-op without OpenBLAS."""

import sys
import threading

import numpy as np
import pytest

from msiblockade import blas, liouvillian
from msiblockade.fock import annihilation, make_space
from msiblockade.liouvillian import SteadyStateError, build_liouvillian, steady_state
from msiblockade.model import SystemParams, build_collapse_ops, build_effective_hamiltonian
from msiblockade.sweep import _tier_liouvillian


def fake_library(name, threads):
    state = {"threads": threads}
    lib = blas.OpenBLAS(name, lambda: state["threads"], lambda n: state.__setitem__("threads", n))
    return lib, state


@pytest.fixture
def fakes(monkeypatch):
    a, a_state = fake_library("liba", 3)
    b, b_state = fake_library("libb", 2)
    monkeypatch.setattr(blas, "libraries", lambda: (a, b))
    return a_state, b_state


def counts(states):
    return [s["threads"] for s in states]


def small_liouvillian(drive=1.0e3):
    s = make_space([4])
    a = annihilation(s, 0)
    return build_liouvillian(drive * (a.dag() + a), [100.0 * a])


def series(L):
    return liouvillian._steady_series(L, *liouvillian._generator(L))


def preset_params(delta=-2.0e5):
    return SystemParams(
        kappa_c=5.0e3, kappa_e=5.0e3, g_omega=200.0, g_kappa=500.0, J=2.0e5,
        delta_c=delta, delta_e=delta, eps_c=5.0e3, eps_e=5.0e3,
    )


def preset_liouvillian(levels=(6, 6), delta=-2.0e5):
    """The effective model at the preset point, J = -Delta = 2e5: a row the series serves.

    At Delta = +J (the hybrid-mode resonance) the series refuses the row.
    """
    p = preset_params(delta)
    s = make_space(levels)
    return build_liouvillian(build_effective_hamiltonian(p, s), build_collapse_ops(p, s))


class TestSingleThread:
    def test_restores_after_normal_exit(self, fakes):
        with blas.single_thread():
            assert counts(fakes) == [1, 1]
        assert counts(fakes) == [3, 2]

    def test_restores_after_exception(self, fakes):
        with pytest.raises(RuntimeError, match="boom"):
            with blas.single_thread():
                assert counts(fakes) == [1, 1]
                raise RuntimeError("boom")
        assert counts(fakes) == [3, 2]

    def test_overlapping_budgets_restore_once_all_have_left(self, fakes):
        # as two Python threads would: the first to enter leaves first
        first, second = blas.single_thread(), blas.single_thread()
        first.__enter__()
        second.__enter__()
        first.__exit__(None, None, None)
        assert counts(fakes) == [1, 1]
        second.__exit__(None, None, None)
        assert counts(fakes) == [3, 2]

    def test_concurrent_budgets_restore_once(self, fakes):
        # more threads than cores, switching often: a lost update of the shared
        # depth would leave the counts at 1 or restore them inside a budget
        seen = []

        def work():
            for _ in range(200):
                with blas.single_thread():
                    seen.append(counts(fakes))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work) for _ in range(8)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert len(seen) == 8 * 200 and all(c == [1, 1] for c in seen)
        assert counts(fakes) == [3, 2]

    def test_noop_without_library(self, monkeypatch):
        monkeypatch.setattr(blas, "libraries", lambda: ())
        with blas.single_thread():
            pass


@pytest.fixture
def two_threads():
    libs = blas.libraries()
    if not libs:
        pytest.skip("no bundled OpenBLAS loaded in this process")
    saved = [lib.get_num_threads() for lib in libs]
    for lib in libs:
        lib.set_num_threads(2)
    yield libs
    for lib, n in zip(libs, saved):
        lib.set_num_threads(n)


class TestKrylovBudget:
    def test_krylov_solve_runs_single_threaded_and_restores(self, two_threads, monkeypatch):
        seen = []
        inverse = liouvillian._sylvester_inverse

        def spy(*args):
            seen.append([lib.get_num_threads() for lib in two_threads])
            return inverse(*args)

        monkeypatch.setattr(liouvillian, "_sylvester_inverse", spy)
        res = steady_state(small_liouvillian(), method="krylov")
        assert res.method == "krylov"
        assert seen == [[1] * len(two_threads)]
        assert [lib.get_num_threads() for lib in two_threads] == [2] * len(two_threads)

    def test_failed_krylov_solve_restores(self, two_threads, monkeypatch):
        def fail(*args):
            raise SteadyStateError("Sylvester solve failed")

        monkeypatch.setattr(liouvillian, "_sylvester_inverse", fail)
        with pytest.raises(SteadyStateError):
            steady_state(small_liouvillian(), method="krylov")
        assert [lib.get_num_threads() for lib in two_threads] == [2] * len(two_threads)


class TestDirectBudget:
    @pytest.fixture(autouse=True)
    def model_left_to_the_band_lu(self):
        # the spies below watch gbsv, which the direct solve reaches only for
        # rows the drive-order series does not serve: at this drive the
        # series' residual, extrapolated from K = 2 and 4, misses 1e-12 at K = 10
        assert series(small_liouvillian()) is None

    @staticmethod
    def spy_gbsv(monkeypatch, body):
        lapack = liouvillian.get_lapack_funcs

        def spy(names, arrays):
            (gbsv,) = lapack(names, arrays)
            return (lambda *args, **kwargs: body(gbsv, *args, **kwargs),)

        monkeypatch.setattr(liouvillian, "get_lapack_funcs", spy)

    def test_direct_solve_runs_single_threaded_and_restores(self, two_threads, monkeypatch):
        seen = []

        def record(gbsv, *args, **kwargs):
            seen.append([lib.get_num_threads() for lib in two_threads])
            return gbsv(*args, **kwargs)

        self.spy_gbsv(monkeypatch, record)
        res = steady_state(small_liouvillian(), method="direct")
        assert res.method == "direct"
        assert seen == [[1] * len(two_threads)]
        assert [lib.get_num_threads() for lib in two_threads] == [2] * len(two_threads)

    def test_failed_direct_solve_restores(self, two_threads, monkeypatch):
        def fail(gbsv, *args, **kwargs):
            raise RuntimeError("gbsv failed")

        self.spy_gbsv(monkeypatch, fail)
        with pytest.raises(RuntimeError, match="gbsv failed"):
            steady_state(small_liouvillian(), method="direct")
        assert [lib.get_num_threads() for lib in two_threads] == [2] * len(two_threads)


class TestSeriesBudget:
    def test_series_runs_single_threaded_and_restores(self, two_threads, monkeypatch):
        L = small_liouvillian(drive=10.0)
        want = series(L)
        assert want is not None
        seen = []
        sums = liouvillian._series_sums

        def spy(*args):
            seen.append([lib.get_num_threads() for lib in two_threads])
            return sums(*args)

        monkeypatch.setattr(liouvillian, "_series_sums", spy)
        res = steady_state(L, method="direct")
        assert np.array_equal(res.state.matrix, want.state.matrix)
        assert seen == [[1] * len(two_threads)]
        assert [lib.get_num_threads() for lib in two_threads] == [2] * len(two_threads)

    # the sweep CSV must equal a fresh steady_state(L, "direct") bit for bit,
    # whatever the caller's thread counts; the vacuum block's Sylvester
    # denominator is exactly 0 here and must not warn. (12,12), the presets'
    # gate rung, lies above DIRECT_LIMIT, where the series is tried too
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("levels", [(6, 6), (12, 12)], ids=["6-6", "12-12"])
    def test_series_is_bit_identical_across_calls_and_thread_counts(self, two_threads, levels):
        L = preset_liouvillian(levels)
        P, Q, _, _ = liouvillian._generator(L)
        assert P[0, 0] + Q[0, 0] == 0
        first, second = steady_state(L), steady_state(L)
        for lib in two_threads:
            lib.set_num_threads(1)
        single = steady_state(L)
        want = series(L)
        assert want is not None
        for res in (first, second, single):
            assert np.array_equal(res.state.matrix.view(np.uint64), want.state.matrix.view(np.uint64))
            assert res.residual == want.residual


class TestAboveDirectLimitBudget:
    """Above DIRECT_LIMIT: the series first, Krylov where it refuses the row."""

    @pytest.mark.parametrize("delta, method", [(-2.0e5, "direct"), (2.0e5, "krylov")], ids=["certified", "refused"])
    def test_series_and_krylov_run_single_threaded_and_restore(self, two_threads, monkeypatch, delta, method):
        L = preset_liouvillian((12, 12), delta)
        assert L.dim > liouvillian.DIRECT_LIMIT

        def threads():
            return [lib.get_num_threads() for lib in two_threads]

        seen = {"series": [], "krylov": []}
        sums, inverse = liouvillian._series_sums, liouvillian._sylvester_inverse

        def spy_sums(*args):
            seen["series"].append(threads())
            return sums(*args)

        def spy_inverse(*args):
            solve, branch = inverse(*args)
            return (lambda C: seen["krylov"].append(threads()) or solve(C)), branch

        monkeypatch.setattr(liouvillian, "_series_sums", spy_sums)
        monkeypatch.setattr(liouvillian, "_sylvester_inverse", spy_inverse)
        assert steady_state(L).method == method
        one = [1] * len(two_threads)
        assert seen["series"] == [one]
        assert bool(seen["krylov"]) == (method == "krylov")
        assert all(c == one for c in seen["krylov"])
        assert threads() == [2] * len(two_threads)

    # the residual too: the generator and _finish run under the budget, so
    # rows left to Krylov (master_full, and a (12,12) rung at Delta = +J that
    # the series refuses) give the same result at any caller thread count
    @pytest.mark.parametrize("full", [True, False], ids=["full-4-4-8", "12-12-refused"])
    def test_krylov_rows_are_bit_identical_across_calls_and_thread_counts(self, two_threads, full):
        if full:
            L = _tier_liouvillian(preset_params(), (4, 4, 8), full=True)
        else:
            L = preset_liouvillian((12, 12), delta=2.0e5)
            assert series(L) is None
        first, second = steady_state(L), steady_state(L)
        for lib in two_threads:
            lib.set_num_threads(1)
        single = steady_state(L)
        assert first.method == "krylov"
        for res in (second, single):
            assert (res.method, res.notes) == (first.method, first.notes)
            assert np.array_equal(res.state.matrix.view(np.uint64), first.state.matrix.view(np.uint64))
            assert res.residual == first.residual
