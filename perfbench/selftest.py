"""Self-tests of the benchmark: its checks, its generator and its tracer.

Run from the root of a frobsig checkout:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys
import unittest

import layers
import run
import workloads

sys.path.insert(0, str(run.SRC))

import frobsig.cli as cli  # noqa: E402
from frobsig import hypersurface, ring  # noqa: E402
from frobsig.frobenius import FrobBasis  # noqa: E402

SMALL = workloads.generate("cli", workloads.DEFAULT_SEED)[-3:] + [
    workloads.fixed("decompose --dvec 2,1 --p 5 --e 1"),
    workloads.fixed("fsignature --type uv --f x1^2+x1*x2 --p 3 --emax 1"),
]


class CheckTest(unittest.TestCase):
    def test_one_byte_change_and_wrong_exit_are_failures(self):
        good = SMALL[0]
        flipped = good.stdout[:-2] + chr(ord(good.stdout[-2]) ^ 1) + "\n"
        calls = [
            good,
            workloads.Call(good.argv, exit=1, stdout=good.stdout),
            workloads.Call(good.argv, stdout=flipped),
        ]
        _, errors = run.in_process_pass(cli, calls, {})
        self.assertIsNone(errors[0])
        self.assertRegex(errors[1], "exit 0, expected 1")
        self.assertRegex(errors[2], "stdout differs")

    def test_recorded_digest_is_exact(self):
        call = workloads.fixed("verify --f x1^2 --p 3 --e 1 --k 1")
        out = b'{"f": "x1^2", "q": 3, "k": 1, "size": 3, "verified": true}\n'
        recorded = {call.key: {"exit": 0, "sha256": workloads.digest(out)}}
        self.assertIsNone(workloads.check(call, 0, out, recorded))
        self.assertIsNotNone(workloads.check(call, 0, out.replace(b"3", b"4", 1), recorded))
        self.assertIsNotNone(workloads.check(call, 2, out, recorded))
        self.assertIsNotNone(workloads.check(call, 0, out, {}))

    def test_closed_form_fields(self):
        call = workloads.fixed("fsignature --type uv --dvec 2,1", closed_form="5/12")
        out = b'{"target": "uv", "dvec": [2, 1], "closed_form": "1/3", "empirical": []}\n'
        recorded = {call.key: {"exit": 0, "sha256": workloads.digest(out)}}
        self.assertRegex(workloads.check(call, 0, out, recorded), "closed form")


class GeneratorTest(unittest.TestCase):
    def test_deterministic_per_seed(self):
        for name in workloads.WORKLOADS:
            for seed in (0, 1, 17):
                self.assertEqual(workloads.generate(name, seed), workloads.generate(name, seed))

    def test_seeds_fill_the_seeded_slots(self):
        for name in workloads.WORKLOADS:
            argvs = {str([c.argv for c in workloads.generate(name, s)]) for s in range(8)}
            self.assertGreater(len(argvs), 1, name)

    def test_oracle_matches_the_program(self):
        import random

        for seed in range(6):
            terms = workloads.random_poly(random.Random(seed), 2, 3, 3, range(1, 4))
            f = ring.parse_poly(workloads.poly_arg(terms), 3, 2)
            self.assertEqual(str(f), workloads.poly_str(terms))
            basis = FrobBasis(3, 1, 2)
            self.assertEqual(workloads.free_rank(terms, 2, 3, 3, "uv"),
                             hypersurface.free_rank_uv(f, basis))
            self.assertEqual(workloads.free_rank(terms, 2, 3, 3, "z2"),
                             hypersurface.free_rank_z2(f, basis))


class TracerTest(unittest.TestCase):
    def test_self_times_add_up_to_the_root_span(self):
        tracer = layers.Tracer()
        tracer.install()
        try:
            _, errors = run.in_process_pass(cli, SMALL, {}, tracer)
        finally:
            tracer.uninstall()
        self.assertEqual(errors[:3], [None] * 3)
        own = tracer.self_times()
        self.assertTrue(all(t >= -1e-9 for t in own))
        roots = [i for i, s in enumerate(tracer.spans) if s[3] < 0]
        self.assertEqual([tracer.spans[i][4] for i in roots], list(range(len(SMALL))))
        for i in roots:
            name, start, end, _, call_id = tracer.spans[i]
            self.assertEqual(name, "cli.main")
            total = sum(t for s, t in zip(tracer.spans, own) if s[4] == call_id)
            self.assertAlmostEqual(total, end - start, delta=1e-9)
        metrics = tracer.metrics()
        self.assertGreater(metrics["hypersurface.free_rank_uv.total_s"][0], 0)
        self.assertGreater(metrics["ring.poly_mul.calls"][0], 0)
        self.assertGreater(metrics["monomial.eta.calls"][0], 0)

    def test_every_binding_site_is_wrapped_then_restored(self):
        original = hypersurface.free_rank_uv
        poly_mul = ring.SparsePoly.__mul__
        tracer = layers.Tracer()
        tracer.install()
        try:
            self.assertIsNot(cli.free_rank_uv, original)
            self.assertIsNot(hypersurface.free_rank_uv, original)
            self.assertIsNot(ring.SparsePoly.__mul__, poly_mul)
        finally:
            tracer.uninstall()
        self.assertIs(cli.free_rank_uv, original)
        self.assertIs(hypersurface.free_rank_uv, original)
        self.assertIs(ring.SparsePoly.__mul__, poly_mul)
        self.assertIs(cli.json, run.json)


if __name__ == "__main__":
    unittest.main()
