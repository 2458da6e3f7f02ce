"""Span tracer for the compound-bcc layers, applied from outside the package.

Run as a script, it executes one CLI invocation with the layers traced:

    PYTHONPATH=src python3 bench/tracer.py SPANS.npz <compound-bcc arguments>

Every public function (each name in ``__all__``) of the seven layer modules
``cli``, ``channel``, ``linalg``, ``gaussian``, ``ergodic``, ``regions`` and
``sdof`` is wrapped at every module namespace that binds it, so calls between
modules are seen as well: ``numerical_rank`` is rebound in both
``compound_bcc.linalg`` and ``compound_bcc.channel``. The CLI's subcommand
bodies (``run_*``) and file writers (``_write_*``) are wrapped too, as is
``FadingProcess.__init__``. Each call records a span (name, parent span,
start, end); spans stay in memory and are written to SPANS.npz when the
invocation ends. The process exits with the CLI's exit code.

``Trace.load`` reads that file back and derives self times: a span's duration
minus the time its direct child spans cover.
"""

import array
import functools
import hashlib
import importlib
import json
import sys
import time

import numpy as np

LAYERS = ("cli", "channel", "linalg", "gaussian", "ergodic", "regions", "sdof")
CLASSES = ("ergodic.FadingProcess",)


def _channel_key(ch, tol=None):
    return hashlib.sha1(ch.stacked_rows().tobytes()).digest()


# Extra observations per span name: ``key`` gives a value whose distinct
# occurrences are counted, ``tally`` a number summed over the results.
HOOKS = {
    "ergodic.sample_block": {"key": lambda fp, t: t},
    "channel.verify_rank_condition": {
        "key": _channel_key,
        "tally": lambda report: report.checked,
    },
}


class Tracer:
    """Records nested call spans in flat arrays, in call order."""

    def __init__(self):
        self.names = []
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.distinct = {}
        self.tallies = {}
        self._stack = [-1]

    def wrap(self, name, fn, key=None, tally=None):
        """Return ``fn`` wrapped so that each call records a span ``name``."""
        nid = len(self.names)
        self.names.append(name)
        seen = self.distinct.setdefault(name, set()) if key else None
        if tally:
            self.tallies[name] = 0
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.end.append(0.0)
            stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()
            if key:
                seen.add(key(*args, **kwargs))
            if tally:
                self.tallies[name] += tally(result)
            return result

        return traced

    def save(self, path, **meta):
        meta = dict(
            meta,
            names=self.names,
            distinct={k: len(v) for k, v in self.distinct.items()},
            tallies=self.tallies,
        )
        np.savez(
            path,
            name=np.frombuffer(self.name, dtype=np.intc),
            parent=np.frombuffer(self.parent, dtype=np.intc),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            meta=np.array(json.dumps(meta)),
        )


def _traced_names(layer, module):
    names = list(module.__all__)
    if layer == "cli":
        names += [n for n in vars(module) if n.startswith(("run_", "_write_"))]
    return names


def instrument(tracer):
    """Wrap the layers' functions in every namespace that binds them."""
    package = importlib.import_module("compound_bcc")
    modules = {layer: importlib.import_module(f"compound_bcc.{layer}") for layer in LAYERS}
    namespaces = [package, *modules.values()]
    for layer, module in modules.items():
        for attr in _traced_names(layer, module):
            obj = getattr(module, attr)
            name = f"{layer}.{attr}"
            if name in CLASSES:
                obj.__init__ = tracer.wrap(name, obj.__init__)
                continue
            if not callable(obj) or isinstance(obj, type):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            wrapped = tracer.wrap(name, obj, **HOOKS.get(name, {}))
            for ns in namespaces:
                for k, v in list(vars(ns).items()):
                    if v is obj:
                        setattr(ns, k, wrapped)


class Trace:
    """Spans of one traced invocation, with per-name aggregates."""

    def __init__(self, names, name, parent, start, end, meta):
        self.meta = meta
        self.names = names
        self.layer_of = [n.split(".", 1)[0] for n in names]
        self.name = name
        self.parent = parent
        self.duration = end - start
        covered = np.zeros(len(name))
        child = parent >= 0
        np.add.at(covered, parent[child], self.duration[child])
        self.self_time = self.duration - covered

    @classmethod
    def load(cls, path):
        with np.load(path, allow_pickle=False) as f:
            meta = json.loads(str(f["meta"]))
            return cls(meta["names"], f["name"], f["parent"], f["start"], f["end"], meta)

    def _mask(self, *names):
        ids = [i for i, n in enumerate(self.names) if n in names]
        return np.isin(self.name, ids)

    def count(self, *names):
        return int(self._mask(*names).sum())

    def total(self, *names):
        """Summed duration of the named spans, children included."""
        return float(self.duration[self._mask(*names)].sum())

    def self_total(self, *names):
        return float(self.self_time[self._mask(*names)].sum())

    def distinct(self, name):
        return self.meta["distinct"].get(name, 0)

    def tally(self, name):
        return self.meta["tallies"].get(name, 0)

    def children_of(self, parent_name, child_name):
        """Number of ``child_name`` spans whose direct parent is ``parent_name``."""
        child = self._mask(child_name) & (self.parent >= 0)
        parents = self.parent[child]
        pid = self.names.index(parent_name) if parent_name in self.names else -1
        return int(np.count_nonzero(self.name[parents] == pid))

    def _entries(self, layer):
        """Spans of ``layer`` called from outside it: the calls into the layer."""
        layer_of = np.array(self.layer_of)
        own = layer_of[self.name] == layer
        parent_layer = np.where(self.parent >= 0, layer_of[self.name[self.parent]], "")
        return own & (parent_layer != layer)

    def entry_count(self, layer):
        return int(self._entries(layer).sum())

    def entry_total(self, layer):
        return float(self.duration[self._entries(layer)].sum())

    def layer_self(self):
        """Self time summed per layer, over every layer in ``LAYERS``."""
        out = dict.fromkeys(LAYERS, 0.0)
        for nid, layer in enumerate(self.layer_of):
            out[layer] += float(self.self_time[self.name == nid].sum())
        return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(trace):
    """Per-layer metrics of one traced invocation, keyed by metric name."""
    sample = "ergodic.sample_block"
    verify = "channel.verify_rank_condition"
    generate = "channel.generate_compound"
    t = trace
    sample_calls = t.count(sample)
    sample_s = t.total(sample)
    verify_calls = t.count(verify)
    verify_s = t.total(verify)
    subsets = t.tally(verify)
    generate_calls = t.count(generate)
    return {
        "ergodic.sample_calls": sample_calls,
        "ergodic.sample_s": sample_s,
        "ergodic.sample_us_per_block": 1e6 * _ratio(sample_s, sample_calls),
        "ergodic.simulate_s": t.total("ergodic.simulate_blocks"),
        "ergodic.distinct_block_ratio": _ratio(t.distinct(sample), sample_calls),
        "ergodic.process_init_s": t.total("ergodic.FadingProcess"),
        "channel.verify_calls": verify_calls,
        "channel.verify_s": verify_s,
        "channel.subsets_checked": subsets,
        "channel.subsets_per_s": _ratio(subsets, verify_s),
        "channel.verify_useful_ratio": _ratio(t.distinct(verify), verify_calls),
        "channel.generate_calls": generate_calls,
        "channel.generate_s": t.self_total(generate),
        "channel.resample_attempts": t.children_of(generate, verify) - generate_calls,
        "linalg.rank_calls": t.count("linalg.numerical_rank"),
        "linalg.rank_s": t.total("linalg.numerical_rank"),
        "linalg.logdet_calls": t.count("linalg.logdet2_hpd"),
        "linalg.logdet_s": t.total("linalg.logdet2_hpd"),
        "linalg.nullspace_calls": t.count("linalg.null_space_basis"),
        "linalg.nullspace_s": t.total("linalg.null_space_basis"),
        "gaussian.build_s": t.total("gaussian.build_beamformers"),
        "gaussian.rates_s": t.total("gaussian.worst_case_rates"),
        "gaussian.leakage_s": t.total("gaussian.max_leakage"),
        "gaussian.rate_evals": t.count(
            "gaussian.rate_common", "gaussian.rate_confidential", "gaussian.rate_leakage"
        ),
        "regions.calls": t.entry_count("regions"),
        "regions.s": t.entry_total("regions"),
        "sdof.fit_calls": t.count("sdof.estimate_sdof_series"),
        "sdof.fit_s": t.total("sdof.estimate_sdof_series"),
        "cli.write_s": t.total("cli._write_csv", "cli._write_summary")
        + t.total("regions.save_region"),
    }


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    from compound_bcc import cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    instrument(tracer)
    code = cli.main(cli_args)
    tracer.save(spans_path, import_s=import_s, main_s=time.perf_counter() - t0)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
