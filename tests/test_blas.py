"""One-thread BLAS budget: restore on every exit, no-op without OpenBLAS."""

import sys
import threading

import pytest

from msiblockade import blas, liouvillian
from msiblockade.fock import annihilation, make_space
from msiblockade.liouvillian import SteadyStateError, build_liouvillian, steady_state


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


def small_liouvillian():
    s = make_space([4])
    a = annihilation(s, 0)
    return build_liouvillian(1.0e3 * (a.dag() + a), [100.0 * a])


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
