"""Self-tests for the repository benchmark.

Run from the repository root (about a minute)::

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` is well formed and names exactly the
metrics the benchmark prints, that the committed specs load, that the
pinned catalog is the current scenario registry, and that a smoke-size
run of every workload passes its golden digest check in both modes.
"""

import json
import re
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

sys.path.insert(0, str(run.ROOT / "src"))

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def benchmark():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


class BenchmarkJson(unittest.TestCase):
    def test_shape(self):
        b = benchmark()
        self.assertEqual(set(b), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertEqual(b["paths"], ["perfbench"])
        self.assertIn(b["run_seconds"], range(1, 61))
        self.assertTrue(all(isinstance(a, str) and len(a) <= 200
                            for a in b["command"]))
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        setup = next(m for m in b["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in b["end_to_end"]))

    def test_names_and_units(self):
        b = benchmark()
        names = [x["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for x in b[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(NAME.fullmatch(name), name)
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertTrue(UNIT.fullmatch(m["unit"]), m["unit"])
            self.assertIn(m["better"], ("lower", "higher"))

    def test_workloads_match_the_benchmark(self):
        self.assertEqual([w["name"] for w in benchmark()["workloads"]],
                         list(run.workloads()))


class Specs(unittest.TestCase):
    def test_committed_specs_load(self):
        from repro.scenarios import ScenarioSpec

        for path in sorted(run.SPECS.glob("*.toml")):
            spec = ScenarioSpec.from_file(str(path))
            self.assertEqual(spec.name, path.stem)
            self.assertFalse(spec.include_opt)

    def test_prefill_spec_keys_match_the_replicated_spec(self):
        from repro.scenarios import ScenarioSpec

        text = (run.SPECS / "replicate-resume.toml").read_text()
        spec = ScenarioSpec.from_toml(text)
        flat = ScenarioSpec.from_toml(run.without_table(text, "replicates"))
        self.assertTrue(spec.replicates)
        self.assertEqual(flat.to_dict(),
                         spec.with_overrides(replicates={}).to_dict())

    def test_catalog_is_the_registry(self):
        from repro.scenarios import scenario_names

        jobs = run.workloads()["catalog"].jobs["full"]
        self.assertEqual(sorted(scenario_names()), [j.name for j in jobs])


class Smoke(unittest.TestCase):
    """A smoke-size run of each workload, checked against its digests."""

    def run_smoke(self, name, traced):
        with run.run_directory() as run_dir:
            bench = run.Bench(run.workloads()[name], "smoke", 7,
                              run.Runner(run_dir))
            measure = run.measure_traced if traced else run.measure
            return measure(bench, 0)

    def test_end_to_end(self):
        want = [m["name"] for m in benchmark()["end_to_end"]]
        for name in run.workloads():
            with self.subTest(workload=name):
                metrics, attempted, failed = self.run_smoke(name, False)
                self.assertEqual(failed, 0)
                self.assertEqual(list(metrics), want)
                self.assertTrue(all(v > 0 for v, _ in metrics.values()))

    def test_traced(self):
        want = {m["name"]: m["unit"] for m in benchmark()["per_layer"]}
        for name in run.workloads():
            with self.subTest(workload=name):
                metrics, attempted, failed = self.run_smoke(name, True)
                self.assertEqual(failed, 0)
                self.assertEqual({k: u for k, (_, u) in metrics.items()},
                                 want)
                self.assertGreater(metrics["cli.import_s"][0], 0)
                self.assertGreater(metrics["traffic.packets"][0], 0)


if __name__ == "__main__":
    unittest.main()
