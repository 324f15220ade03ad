"""Tests of the benchmark's tracer and job runner.

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

import json
import os
import subprocess
import sys
import tempfile
import types
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from tracer import Tracer, install, summarize  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class SelfTimeTest(unittest.TestCase):
    def setUp(self):
        self.clock = FakeClock()
        self.tracer = Tracer(clock=self.clock)

    def test_nested_calls_in_two_layers(self):
        clock = self.clock

        def inner():
            clock.advance(3)

        inner = self.tracer.wrap("inner", "low", inner)

        def outer():
            clock.advance(1)
            inner()
            clock.advance(2)
            inner()

        outer = self.tracer.wrap("outer", "high", outer)
        outer()
        s = summarize(self.tracer.spans)
        self.assertEqual(s["layer_self_s"], {"high": 3.0, "low": 6.0})
        self.assertEqual(s["calls"], {"outer": 1, "inner": 2})
        self.assertEqual(s["inclusive_s"], {"outer": 9.0, "inner": 6.0})
        parents = [span[4] for span in self.tracer.spans]
        self.assertEqual(parents, [-1, 0, 0])

    def test_recursion_is_not_counted_twice(self):
        clock = self.clock

        def fact(k):
            clock.advance(1)
            out = k * fact(k - 1) if k else 1
            clock.advance(1)
            return out

        fact = self.tracer.wrap("fact", "algebra", fact)
        self.assertEqual(fact(3), 6)
        s = summarize(self.tracer.spans)
        self.assertEqual(s["calls"], {"fact": 4})
        self.assertEqual(s["inclusive_s"], {"fact": 8.0})
        self.assertEqual(s["layer_self_s"], {"algebra": 8.0})

    def test_mutual_recursion_across_names(self):
        # the shape of Engine.reduce and Engine.sand calling each other
        clock = self.clock
        calls = {}

        def a(k):
            clock.advance(1)
            if k:
                calls["b"](k)

        def b(k):
            clock.advance(2)
            calls["a"](k - 1)

        calls["a"] = self.tracer.wrap("a", "x", a)
        calls["b"] = self.tracer.wrap("b", "x", b)
        calls["a"](2)
        s = summarize(self.tracer.spans)
        self.assertEqual(s["calls"], {"a": 3, "b": 2})
        self.assertEqual(s["inclusive_s"], {"a": 7.0, "b": 6.0})
        self.assertEqual(s["layer_self_s"], {"x": 7.0})

    def test_span_closes_when_the_call_raises(self):
        def boom():
            self.clock.advance(5)
            raise ValueError("boom")

        boom = self.tracer.wrap("boom", "x", boom)
        with self.assertRaises(ValueError):
            boom()
        self.assertEqual(self.tracer.spans, [["boom", "x", 0.0, 5.0, -1]])
        self.assertEqual(self.tracer._open, [])

    def test_note_sees_arguments(self):
        def note(tracer, args, kwargs):
            tracer.bump("big" if args[0] > 1 else "small")

        f = self.tracer.wrap("f", "x", lambda v: v, note)
        for v in (0, 1, 2, 3):
            f(v)
        self.assertEqual(self.tracer.counts, {"small": 2, "big": 2})


CORE_SOURCE = '''
def f(x):
    return x + 1

class Num:
    def __init__(self, v):
        self.v = v
    def __add__(self, other):
        return Num(self.v + (other.v if isinstance(other, Num) else other))
    __radd__ = __add__
    @staticmethod
    def unit():
        return Num(1)
    @classmethod
    def make(cls, v):
        return cls(v)

def uses_f(x):
    return f(x)
'''


class InstallTest(unittest.TestCase):
    def setUp(self):
        self.names = ["fakepkg", "fakepkg.core", "fakepkg.user"]
        pkg, core, user = (types.ModuleType(n) for n in self.names)
        exec(CORE_SOURCE, core.__dict__)
        user.f = core.f
        user.alias = core.f
        user.Num = core.Num
        for name, mod in zip(self.names, (pkg, core, user)):
            sys.modules[name] = mod
        self.core, self.user = core, user

    def tearDown(self):
        for name in self.names:
            del sys.modules[name]

    def test_every_binding_is_replaced(self):
        tracer = Tracer()
        replaced = install(
            tracer,
            "fakepkg",
            [
                ("core.f", "core", None),
                ("core.Num.__add__", "core", None),
                ("core.Num.unit", "core", None),
                ("core.Num.make", "core", None),
            ],
        )
        self.assertEqual(
            replaced,
            {"core.f": 3, "core.Num.__add__": 2, "core.Num.unit": 1, "core.Num.make": 1},
        )
        core, user = self.core, self.user
        self.assertEqual(user.f(1), 2)
        self.assertEqual(user.alias(1), 2)
        self.assertEqual(core.uses_f(1), 2)  # global lookup in the defining module
        self.assertEqual((core.Num(1) + 2).v, 3)
        self.assertEqual((2 + core.Num(1)).v, 3)
        self.assertEqual(core.Num.unit().v, 1)
        self.assertEqual(user.Num.make(4).v, 4)
        self.assertIsInstance(core.Num.make(4), core.Num)
        calls = summarize(tracer.spans)["calls"]
        self.assertEqual(
            calls,
            {"core.f": 3, "core.Num.__add__": 2, "core.Num.unit": 1, "core.Num.make": 2},
        )


def _env():
    return dict(os.environ, PYTHONPATH=run.SRC, PYTHONHASHSEED="0")


class QbrauerTracingTest(unittest.TestCase):
    def test_targets_resolve_and_imported_names_are_replaced(self):
        code = (
            "import json, qbrauer.cli\n"
            "from layers import TARGETS\n"
            "from tracer import Tracer, install\n"
            "print(json.dumps(install(Tracer(), 'qbrauer', TARGETS)))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            cwd=HERE,
            env=dict(_env(), PYTHONPATH=os.pathsep.join([run.SRC, HERE])),
            capture_output=True,
            text=True,
            check=True,
        )
        replaced = json.loads(out.stdout)
        self.assertTrue(all(count >= 1 for count in replaced.values()), replaced)
        # mat_det is imported by name into semisimple and cli
        self.assertEqual(replaced["linalg.mat_det"], 3)
        # cli binds semisimple.scan as scan_exponents
        self.assertEqual(replaced["semisimple.scan"], 2)
        self.assertEqual(replaced["coefficients.Coeff.__add__"], 2)  # __radd__

    def test_traced_job_prints_the_plain_report(self):
        args = ["scan", "--n", "3", "--seed", "5"]
        with tempfile.TemporaryDirectory() as tmp:
            env = dict(_env(), QBRAUER_CACHE_DIR=tmp)
            spans_path = os.path.join(tmp, "spans.json")
            plain = subprocess.run(
                [sys.executable, "-m", "qbrauer.cli", *args],
                env=env, capture_output=True, check=True,
            )
            traced = subprocess.run(
                [sys.executable, os.path.join(HERE, "traced_cli.py"), spans_path, *args],
                env=env, capture_output=True, check=True,
            )
            with open(spans_path) as fh:
                dump = json.load(fh)
        self.assertEqual(plain.stdout, traced.stdout)
        s = summarize(dump["spans"])
        self.assertEqual(s["calls"]["cli.main"], 1)
        self.assertEqual(dump["spans"][0][0], "cli.main")
        self.assertGreater(s["calls"]["linalg.mat_det"], 0)
        self.assertEqual(
            s["calls"]["semisimple.gram_det_at"],
            dump["counts"]["fp_dets"] + dump["counts"]["symbolic_dets"],
        )
        self.assertNotIn("_reduce_seen", dump["counts"])

    def test_traced_job_keeps_the_exit_code_of_a_usage_error(self):
        with tempfile.TemporaryDirectory() as tmp:
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "traced_cli.py"),
                 os.path.join(tmp, "spans.json"), "scan", "--n", "1"],
                env=dict(_env(), QBRAUER_CACHE_DIR=tmp), capture_output=True,
            )
        self.assertEqual(out.returncode, 2)


class RunProcessTest(unittest.TestCase):
    def test_peak_rss_is_the_childs_own(self):
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "out")
            big = run.run_process(
                [sys.executable, "-c", "b = bytearray(80 << 20); b[::4096] = b'x' * len(b[::4096])"],
                os.environ, out, 30,
            )
            small = run.run_process([sys.executable, "-c", "pass"], os.environ, out, 30)
        self.assertGreater(big.maxrss_kb, 80 << 10)
        self.assertLess(small.maxrss_kb, 40 << 10)
        self.assertEqual((big.exit_code, small.exit_code), (0, 0))

    def test_timeout_kills_the_child(self):
        with tempfile.TemporaryDirectory() as tmp:
            res = run.run_process(
                [sys.executable, "-c", "import time; time.sleep(30)"],
                os.environ, os.path.join(tmp, "out"), 0.5,
            )
        self.assertTrue(res.timed_out)
        self.assertLess(res.wall_s, 10)


class ExpectedReportTest(unittest.TestCase):
    def test_scan_report_takes_the_benchmark_seed(self):
        job = run.WORKLOADS["scan"][0]
        text = run.expected_report(job, 12345)
        report = json.loads(text)
        self.assertEqual(report["config"]["seed"], 12345)
        self.assertEqual(report["vanishing_exponents"], run.SCAN_N4_VANISHING)
        self.assertTrue(run._scan_ok(report, 12345))
        with open(os.path.join(run.EXPECTED, job.name + ".json")) as fh:
            frozen = fh.read()
        self.assertEqual(run.expected_report(job, 0), frozen)

    def test_frozen_reports_pass_their_checks(self):
        for jobs in run.WORKLOADS.values():
            for job in jobs:
                report = json.loads(run.expected_report(job, 0))
                self.assertTrue(job.check(report, 0), job.name)


if __name__ == "__main__":
    unittest.main()
