#!/usr/bin/env python3
"""Checks perfbench/layers.txt against the simulator sources.

    python3 perfbench/test_layers.py

Every event name src/ constructs must map to a src/ module, so a traced
benchmark run reports other_events = 0 and a renamed or new event is
caught here rather than silently landing in "other". The driver applies
the same rules (exact name first, then the longest '*' prefix).
"""

import os
import re
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")
BUCKETS = {"pump", "completion", "governor", "flow", "wheel", "idle"}

# Placeholder defaults of the kernel's Event / EventFunctionWrapper /
# OneShotPool constructors; src/ passes a real name at every call site.
KERNEL_PLACEHOLDERS = {"event", "lambda", "oneShot"}

# Ways src/ hands a name to an event constructor, matched on text with
# whitespace collapsed. A name built by concatenation ("fault." + kind)
# is captured with a trailing '+' and checked as a prefix.
NAME_PATTERNS = [
    # EventFunctionWrapper([..] { .. }, "name" ...
    re.compile(r'\}\s*,\s*"([^"]+)"(\s*\+)?'),
    # ..., "name", Event::powerPriority)
    re.compile(r'"([^"]+)"(\s*\+[^,;]*)?,\s*Event::\w+Priority'),
    # OneShotPool members: _oneShots(sim, "name") / _delivery(sim, ...)
    re.compile(r'\(\s*sim\s*,\s*"([^"]+)"(\s*\+)?'),
    # Defaulted name parameters: (..., std::string name = "name")
    re.compile(r'std::string name = "([^"]+)"()\s*\)'),
]


def load_map(path=os.path.join(BENCH_DIR, "layers.txt")):
    exact, prefixes = {}, []
    with open(path) as f:
        for line in f:
            fields = line.split()
            if not fields or fields[0].startswith("#"):
                continue
            pattern, module, bucket = fields
            if pattern.endswith("*"):
                prefixes.append((pattern[:-1], (module, bucket)))
            else:
                exact[pattern] = (module, bucket)
    prefixes.sort(key=lambda p: -len(p[0]))
    return exact, prefixes


def classify(name, layer_map):
    exact, prefixes = layer_map
    if name in exact:
        return exact[name]
    for prefix, target in prefixes:
        if name.startswith(prefix):
            return target
    return None


def strip_comments(text):
    """Drop // and /* */ comments (doc examples are not call sites)."""
    return re.sub(r'//[^\n]*|/\*.*?\*/', ' ', text, flags=re.S)


def source_event_names():
    """(name, is_prefix, file) for every event name found in src/."""
    found = set()
    for dirpath, _, filenames in os.walk(SRC):
        for fn in filenames:
            if not fn.endswith((".cc", ".hh")):
                continue
            path = os.path.join(dirpath, fn)
            with open(path) as f:
                text = strip_comments(f.read())
            text = re.sub(r"\s+", " ", text)
            for pat in NAME_PATTERNS:
                for m in pat.finditer(text):
                    name, concat = m.group(1), m.group(2)
                    if name in KERNEL_PLACEHOLDERS:
                        continue
                    found.add((name, bool(concat and concat.strip()),
                               os.path.relpath(path, SRC)))
    return found


class LayerMapTest(unittest.TestCase):
    def setUp(self):
        self.map = load_map()

    def test_map_is_well_formed(self):
        modules = {d for d in os.listdir(SRC)
                   if os.path.isdir(os.path.join(SRC, d))}
        exact, prefixes = self.map
        for pattern, (module, bucket) in (list(exact.items()) +
                                          prefixes):
            self.assertIn(module, modules, pattern)
            self.assertIn(bucket, BUCKETS, pattern)

    def test_extraction_sees_the_hot_events(self):
        names = {n for n, _, _ in source_event_names()}
        for name in ("pump.arrival", "core.completion", "core.demotion",
                     "flow.completion", "flow.activation", "port.lpi",
                     "wheel.tick", "sched.retry", "net.oneShot",
                     "sampler.tick"):
            self.assertIn(name, names)

    def test_every_source_event_name_is_mapped(self):
        for name, is_prefix, path in sorted(source_event_names()):
            probe = name + "x" if is_prefix else name
            self.assertIsNotNone(classify(probe, self.map),
                                 "%s (%s) has no layer" % (name, path))

    def test_names_outside_the_benchmark_workloads_are_mapped(self):
        expect = {
            "pump.arrival": ("dc", "pump"),
            "core.completion": ("server", "completion"),
            "core.demotion": ("server", "governor"),
            "delayTimer.fire": ("server", "governor"),
            "server.wakeDone": ("server", "governor"),
            "dvfs.tick": ("server", "governor"),
            "flow.completion": ("network", "flow"),
            "flow.activation": ("network", "flow"),
            "port.lpi": ("network", "governor"),
            "linecard.sleep": ("network", "governor"),
            "switch.sleep": ("network", "governor"),
            "net.oneShot": ("network", "idle"),
            "wheel.tick": ("sim", "wheel"),
            "sched.retry": ("sched", "idle"),
            "provisioning.check": ("sched", "idle"),
            "adaptive.check": ("sched", "idle"),
            "orch.reconcile": ("orch", "idle"),
            "fault.server0": ("fault", "idle"),
            "sampler.tick": ("telemetry", "idle"),
        }
        for name, target in expect.items():
            self.assertEqual(classify(name, self.map), target, name)

    def test_unknown_names_stay_unmapped(self):
        self.assertIsNone(classify("lambda", self.map))
        self.assertIsNone(classify("no.such.event", self.map))


if __name__ == "__main__":
    unittest.main()
