"""Per-layer tracing of in-process frobsig CLI calls.

``Tracer.install`` wraps the public functions of each frobsig module at
every binding site (modules use ``from .x import y``, so
``frobsig.cli.free_rank_uv`` and ``frobsig.hypersurface.free_rank_uv`` are
both replaced) and a few methods on their classes.  Each wrapped call
records a span ``[name, start, end, parent, call id]`` in memory; the hot
``SparsePoly`` product and ``eta`` only bump counters, since they run
millions of times.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

FREE_RANK = ("hypersurface.free_rank_uv", "hypersurface.free_rank_z2")


class _ModuleProxy:
    """Stands in for a module inside one importer, overriding some attributes."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, call id]
        self.counts: Counter = Counter()
        self.call_id = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._power_keys: set = set()

    # -- wrappers ---------------------------------------------------------------

    def _span(self, name, fn, hook=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.call_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_function(self, fn, wrapper):
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").split(".")[0] != "frobsig":
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)

    # -- hooks that count work at the boundary ------------------------------------

    def _count_columns(self, f, basis):
        self.counts["frobenius.matrix_of_relations.columns"] += basis.size

    def _count_rows(self, rows, p):
        self.counts["matfac.rank_mod_p.rows"] += len(rows)

    def _note_power(self, f, k, basis):
        self._power_keys.add((f, k, basis.e))

    def install(self) -> None:
        import frobsig.cli as cli
        from frobsig import fsig, frobenius, hypersurface, matfac, monomial, ring

        functions = [
            (cli.main, "cli.main", None),
            (ring.parse_poly, "ring.parse_poly", None),
            (frobenius.matrix_power, "frobenius.matrix_power", self._note_power),
            (frobenius.matrix_of_relations, "frobenius.matrix_of_relations",
             self._count_columns),
            (matfac.verify_matfac, "matfac.verify_matfac", None),
            (matfac.rank_mod_p, "matfac.rank_mod_p", self._count_rows),
            (hypersurface.presentation_fk, "hypersurface.presentation_fk", None),
            (hypersurface.free_rank_uv, "hypersurface.free_rank_uv", None),
            (hypersurface.free_rank_z2, "hypersurface.free_rank_z2", None),
            (monomial.decomposition_report, "monomial.decomposition_report", None),
            (monomial.diagonalize_monomial_matrix, "monomial.diagonalize", None),
            (fsig.empirical_sequence, "fsig.empirical_sequence", None),
            (fsig.fsignature_uv_closed, "fsig.closed_form", None),
            (fsig.fsignature_z2_closed, "fsig.closed_form", None),
        ]
        methods = [
            (frobenius.PolyMatrix, "__mul__", "frobenius.polymatrix_mul"),
            (frobenius.PolyMatrix, "matrix_pow", "frobenius.matrix_pow"),
            (frobenius.PolyMatrix, "to_json", "cli.serialize"),
            (frobenius.PolyMatrix, "to_csv", "cli.serialize"),
            (fsig.SignatureReport, "to_json", "cli.serialize"),
            (monomial.DecompositionReport, "to_json", "cli.serialize"),
        ]
        for fn, name, hook in functions:
            self._wrap_function(fn, self._span(name, fn, hook))
        for cls, attr, name in methods:
            self._set(cls, attr, self._span(name, getattr(cls, attr)))
        # cli serializes freerank and verify reports with json.dumps directly
        json = cli.json
        self._set(cli, "json", _ModuleProxy(json, dumps=self._span("cli.serialize", json.dumps)))

        counts = self.counts
        poly_mul = ring.SparsePoly.__mul__
        SparsePoly = ring.SparsePoly

        def counted_poly_mul(a, b):
            if isinstance(b, SparsePoly):
                counts["ring.poly_mul.calls"] += 1
                counts["ring.poly_mul.term_products"] += len(a.terms) * len(b.terms)
            return poly_mul(a, b)

        eta = monomial.eta

        def counted_eta(*args, **kwargs):
            counts["monomial.eta.calls"] += 1
            return eta(*args, **kwargs)

        self._set(SparsePoly, "__mul__", counted_poly_mul)
        self._wrap_function(eta, counted_eta)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ------------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        total, own, calls = Counter(), Counter(), Counter()
        for rec, own_s in zip(self.spans, self.self_times()):
            name = rec[0]
            total[name] += rec[2] - rec[1]
            own[name] += own_s
            calls[name] += 1
        # verification whose result a free-rank computation throws away
        wasted = 0.0
        for name, start, end, parent, _ in self.spans:
            if name != "matfac.verify_matfac":
                continue
            while parent >= 0 and self.spans[parent][0] not in FREE_RANK:
                parent = self.spans[parent][3]
            if parent >= 0:
                wasted += end - start
        free_rank_s = sum(total[name] for name in FREE_RANK)
        powers = calls["frobenius.matrix_power"]
        c = self.counts
        return {
            "cli.main.self_s": (own["cli.main"], "s"),
            "cli.serialize_s": (total["cli.serialize"], "s"),
            "cli.stdout_bytes": (c["cli.stdout_bytes"], "bytes"),
            "fsig.empirical_sequence.self_s": (own["fsig.empirical_sequence"], "s"),
            "fsig.closed_form.total_s": (total["fsig.closed_form"], "s"),
            "hypersurface.free_rank_uv.total_s": (total["hypersurface.free_rank_uv"], "s"),
            "hypersurface.free_rank_z2.total_s": (total["hypersurface.free_rank_z2"], "s"),
            "hypersurface.presentation_fk.calls": (calls["hypersurface.presentation_fk"], "count"),
            "hypersurface.presentation_fk.self_s": (own["hypersurface.presentation_fk"], "s"),
            "matfac.verify_matfac.calls": (calls["matfac.verify_matfac"], "count"),
            "matfac.verify_matfac.total_s": (total["matfac.verify_matfac"], "s"),
            "matfac.verify_share": (wasted / free_rank_s if free_rank_s else 0.0, "ratio"),
            "matfac.rank_mod_p.calls": (calls["matfac.rank_mod_p"], "count"),
            "matfac.rank_mod_p.total_s": (total["matfac.rank_mod_p"], "s"),
            "matfac.rank_mod_p.rows": (c["matfac.rank_mod_p.rows"], "count"),
            "frobenius.matrix_power.calls": (powers, "count"),
            "frobenius.matrix_power.squaring_calls": (calls["frobenius.matrix_pow"], "count"),
            "frobenius.matrix_power.distinct_frac": (
                len(self._power_keys) / powers if powers else 0.0, "ratio"),
            "frobenius.matrix_of_relations.calls": (calls["frobenius.matrix_of_relations"], "count"),
            "frobenius.matrix_of_relations.total_s": (total["frobenius.matrix_of_relations"], "s"),
            "frobenius.matrix_of_relations.columns": (c["frobenius.matrix_of_relations.columns"], "count"),
            "frobenius.polymatrix_mul.calls": (calls["frobenius.polymatrix_mul"], "count"),
            "frobenius.polymatrix_mul.total_s": (total["frobenius.polymatrix_mul"], "s"),
            "monomial.decomposition_report.total_s": (total["monomial.decomposition_report"], "s"),
            "monomial.diagonalize.calls": (calls["monomial.diagonalize"], "count"),
            "monomial.diagonalize.total_s": (total["monomial.diagonalize"], "s"),
            "monomial.eta.calls": (c["monomial.eta.calls"], "count"),
            "ring.poly_mul.calls": (c["ring.poly_mul.calls"], "count"),
            "ring.poly_mul.term_products": (c["ring.poly_mul.term_products"], "count"),
            "ring.parse_poly.total_s": (total["ring.parse_poly"], "s"),
        }
