"""Span recorder and counters wrapped around the engine from outside.

``Tracer.install()`` replaces public engine functions with wrappers in every
``mql`` module namespace that holds them, so a call is seen however its caller
reaches it (``mql.hecke.decompose``, ``mql.cli.hecke_apply``, ...).  Hot
methods of ``HurwitzQuaternion`` and ``CoefficientTable`` get counting
wrappers only, since a span per quaternion product would swamp the run.

Each span records (id, name, start, end, parent, job).  A span's self time is
its duration minus the time its child spans cover; the cost of the counting
wrappers lands in the self time of the enclosing span.  Spans stay in memory
until ``write_spans`` at the end of the run.
"""

from __future__ import annotations

import gzip
import os
import time
from collections import Counter

import mql
import mql.cli
import mql.formal
import mql.hecke
import mql.lift
import mql.quaternion
import mql.spectral

MODULES = (mql, mql.quaternion, mql.formal, mql.lift, mql.hecke, mql.spectral, mql.cli)

# (defining module, function, span name).  A callable name is applied to the
# call's arguments.
SPANNED = (
    (mql.quaternion, "decompose", "quaternion.decompose"),
    (mql.quaternion, "representative", "quaternion.representative"),
    (mql.quaternion, "elements_of_norm", "quaternion.elements_of_norm"),
    (mql.quaternion, "unit_class_reps", "quaternion.unit_class_reps"),
    (mql.quaternion, "divisibility_counts", "quaternion.divisibility_counts"),
    (mql.formal, "reduce_eigen2", "formal.reduce_eigen2"),
    (mql.formal, "evaluate", "formal.evaluate"),
    (mql.lift, "lift_coefficient", "lift.lift_coefficient"),
    (mql.lift, "build_lift_table", "lift.build_lift_table"),
    (mql.lift, "check_maass", lambda table, *a, **k: "lift.check_maass." + table.backend),
    (mql.lift, "source_coefficient", "lift.source_coefficient"),
    (mql.lift, "table_to_json_dict", "lift.table_to_json_dict"),
    (mql.lift, "table_from_json_dict", "lift.table_from_json_dict"),
    (mql.lift, "random_maass_table", "lift.random_maass_table"),
    (mql.hecke, "apply", lambda op, *a, **k: "hecke.apply." + op.kind),
    (mql.hecke, "hecke_image_table", "hecke.hecke_image_table"),
    (mql.hecke, "stability_check", "hecke.stability_check"),
    (mql.hecke, "verify_eigen_relations", "hecke.verify_eigen_relations"),
    (mql.hecke, "extract_lambda", "hecke.extract_lambda"),
    (mql.spectral, "synth_eigenform", "spectral.synth_eigenform"),
    (mql.spectral, "verify_cn_relations", "spectral.verify_cn_relations"),
    (mql.spectral, "satake_from_lambda", "spectral.satake"),
    (mql.spectral, "ramanujan_violation_check", "spectral.satake"),
)

CACHED = {
    "quaternion.elements_of_norm": mql.quaternion.elements_of_norm,
    "quaternion.unit_class_reps": mql.quaternion.unit_class_reps,
    "quaternion.three_squares": mql.quaternion.three_squares,
}

# CLI flags naming files a command reads or writes.
READ_FLAGS = ("--config", "--table", "--source", "--in")
WRITE_FLAGS = ("--out", "--out-csv")


def _flag_values(argv, flags):
    return [argv[j + 1] for j, a in enumerate(argv[:-1]) if a in flags]


def _file_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.isfile(p))


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []  # [span id, covered child ns] per open span
        self.self_ns = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.job = -1
        self._next_id = 0
        self._restore = []
        self._cache_start = {}

    # -- wrapping -----------------------------------------------------------

    def _spanned(self, fn, name):
        stack, spans, self_ns, calls = self.stack, self.spans, self.self_ns, self.calls
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_ns[label] += dur - frame[1]
                calls[label] += 1
                if stack:
                    stack[-1][1] += dur
                spans.append((sid, label, t0, t1, parent, self.job))

        return wrapper

    def _replace_everywhere(self, original, replacement):
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def _patch_method(self, cls, attr, replacement):
        self._restore.append((cls, attr, getattr(cls, attr)))
        setattr(cls, attr, replacement)

    def install(self):
        for mod, attr, name in SPANNED:
            original = getattr(mod, attr)
            self._replace_everywhere(original, self._spanned(original, name))

        counts = self.counts
        valid_indices = mql.lift.valid_indices

        def counted_valid_indices(k_max):
            out = valid_indices(k_max)
            counts["lift.indices"] += len(out)
            return out

        self._replace_everywhere(valid_indices, counted_valid_indices)

        combine = mql.formal.combine

        def counted_combine(*args, **kwargs):
            counts["formal.combine.calls"] += 1
            return combine(*args, **kwargs)

        self._replace_everywhere(combine, counted_combine)

        main = mql.cli.main
        spanned_main = self._spanned(main, "cli.main")

        def traced_main(argv=None):
            counts["cli.bytes_read"] += _file_bytes(_flag_values(argv, READ_FLAGS))
            try:
                return spanned_main(argv)
            finally:
                counts["cli.bytes_written"] += _file_bytes(_flag_values(argv, WRITE_FLAGS))

        self._replace_everywhere(main, traced_main)

        quaternion, table = mql.quaternion.HurwitzQuaternion, mql.lift.CoefficientTable
        mul, divide_scalar, value_at = quaternion.__mul__, quaternion.divide_scalar, table.value_at
        is_valid_index = mql.quaternion.is_valid_index

        def counted_mul(a, b):
            counts["quaternion.products"] += 1
            return mul(a, b)

        def counted_divide_scalar(q, s):
            counts["quaternion.divide_scalar.calls"] += 1
            out = divide_scalar(q, s)
            if out is None:
                counts["quaternion.divide_scalar.misses"] += 1
            return out

        def counted_value_at(tbl, K, u, n):
            counts["lift.value_at.calls"] += 1
            if u < 0 or not is_valid_index(K, u, n):
                counts["lift.value_at.off_lattice"] += 1
            return value_at(tbl, K, u, n)

        self._patch_method(quaternion, "__mul__", counted_mul)
        self._patch_method(quaternion, "divide_scalar", counted_divide_scalar)
        self._patch_method(table, "value_at", counted_value_at)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- jobs -----------------------------------------------------------------

    def begin_job(self, job: int):
        self.job = job
        self._cache_start = {k: f.cache_info() for k, f in CACHED.items()}

    def end_job(self):
        for key, f in CACHED.items():
            info, start = f.cache_info(), self._cache_start[key]
            self.counts[key + ".hits"] += info.hits - start.hits
            self.counts[key + ".misses"] += info.misses - start.misses
        self.job = -1

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics, summed over the traced jobs."""
        c, calls = self.counts, self.calls
        secs = lambda name: self.self_ns[name] / 1e9  # noqa: E731

        def ratio(num, den):
            return num / den if den else 0.0

        def hit_ratio(key):
            hits, misses = c[key + ".hits"], c[key + ".misses"]
            return ratio(hits, hits + misses)

        m = {
            "quaternion.products": c["quaternion.products"],
            "quaternion.divide_scalar.calls": c["quaternion.divide_scalar.calls"],
            "quaternion.divide_scalar.miss_ratio": ratio(
                c["quaternion.divide_scalar.misses"], c["quaternion.divide_scalar.calls"]
            ),
            "quaternion.elements_of_norm.misses": c["quaternion.elements_of_norm.misses"],
            "quaternion.elements_of_norm.self_s": secs("quaternion.elements_of_norm"),
            "quaternion.unit_class_reps.hit_ratio": hit_ratio("quaternion.unit_class_reps"),
            "quaternion.unit_class_reps.self_s": secs("quaternion.unit_class_reps"),
            "quaternion.three_squares.hit_ratio": hit_ratio("quaternion.three_squares"),
            "formal.combine.calls": c["formal.combine.calls"],
            "lift.indices": c["lift.indices"],
            "lift.build_lift_table.self_s": secs("lift.build_lift_table"),
            "lift.check_maass.formal.self_s": secs("lift.check_maass.formal"),
            "lift.check_maass.numeric.self_s": secs("lift.check_maass.numeric"),
            "lift.value_at.calls": c["lift.value_at.calls"],
            "lift.value_at.zero_ratio": ratio(
                c["lift.value_at.off_lattice"], c["lift.value_at.calls"]
            ),
            "lift.table_to_json_dict.self_s": secs("lift.table_to_json_dict"),
            "lift.table_from_json_dict.self_s": secs("lift.table_from_json_dict"),
            "lift.random_maass_table.self_s": secs("lift.random_maass_table"),
            "hecke.hecke_image_table.self_s": secs("hecke.hecke_image_table"),
            "hecke.stability_check.self_s": secs("hecke.stability_check"),
            "hecke.verify_eigen_relations.self_s": secs("hecke.verify_eigen_relations"),
            "hecke.extract_lambda.self_s": secs("hecke.extract_lambda"),
            "spectral.synth_eigenform.self_s": secs("spectral.synth_eigenform"),
            "spectral.verify_cn_relations.self_s": secs("spectral.verify_cn_relations"),
            "spectral.satake.self_s": secs("spectral.satake"),
            "cli.main.calls": calls["cli.main"],
            "cli.self_s": secs("cli.main"),
            "cli.bytes_written": c["cli.bytes_written"],
            "cli.bytes_read": c["cli.bytes_read"],
        }
        for name in (
            "quaternion.decompose", "quaternion.representative",
            "quaternion.divisibility_counts", "formal.reduce_eigen2", "formal.evaluate",
            "lift.lift_coefficient", "lift.source_coefficient",
        ) + tuple("hecke.apply." + k for k in mql.hecke.KINDS):
            m[name + ".calls"] = calls[name]
            m[name + ".self_s"] = secs(name)
        return m

    def write_spans(self, path: str):
        """Write every span as a CSV row: id,name,start_ns,end_ns,parent,job."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,name,start_ns,end_ns,parent,job\n")
            fh.writelines(f"{s},{n},{a},{b},{p},{j}\n" for s, n, a, b, p, j in self.spans)
