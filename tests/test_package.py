"""Package-level tests: public API surface, metadata, docs consistency."""

import pathlib

import pytest

import repro

ROOT = pathlib.Path(repro.__file__).resolve().parent.parent.parent


class TestMetadata:
    def test_version(self):
        assert repro.__version__
        assert repro.PAPER.startswith("Kamal Al-Bawani")
        assert "SPAA 2016" in repro.PAPER

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"__all__ lists missing name {name}"

    @pytest.mark.parametrize("package", ["repro", "repro.traffic",
                                         "repro.farm"])
    def test_star_import_resolves_every_export(self, package):
        """``__all__`` derives from the lazy ``_EXPORTS`` table, so a star
        import resolves each name through the package ``__getattr__``,
        and ``dir()`` lists every one."""
        import importlib

        module = importlib.import_module(package)
        namespace = {}
        exec(f"from {package} import *", namespace)
        assert len(module.__all__) == len(set(module.__all__))
        assert set(module.__all__) <= set(namespace)
        assert set(module.__all__) <= set(dir(module))

    def test_core_api_importable_from_top_level(self):
        from repro import (  # noqa: F401
            CGUPolicy,
            CPGPolicy,
            GMPolicy,
            PGPolicy,
            SwitchConfig,
            cioq_opt,
            crossbar_opt,
            run_cioq,
            run_crossbar,
        )

    def test_subpackages_have_docstrings(self):
        import repro.analysis
        import repro.core
        import repro.offline
        import repro.scheduling
        import repro.simulation
        import repro.stats
        import repro.switch
        import repro.theory
        import repro.traffic

        for mod in (
            repro,
            repro.analysis,
            repro.core,
            repro.offline,
            repro.scheduling,
            repro.simulation,
            repro.stats,
            repro.switch,
            repro.theory,
            repro.traffic,
        ):
            assert mod.__doc__ and len(mod.__doc__) > 20

    def test_every_import_is_declared(self):
        """Every top-level import in src/ and tests/ is stdlib, repro, a
        tests/ module, or a requirement in pyproject.toml — so a fresh
        install from the declaration can import and test the package."""
        import ast
        import re
        import sys
        import tomllib

        project = tomllib.loads(
            (ROOT / "pyproject.toml").read_text())["project"]
        requirements = list(project["dependencies"])
        for extra in project.get("optional-dependencies", {}).values():
            requirements += extra
        declared = {re.match(r"[A-Za-z0-9_.-]+", r).group().lower()
                    .replace("-", "_") for r in requirements}
        local = {p.stem for p in (ROOT / "tests").glob("*.py")}
        ignored = set(sys.stdlib_module_names) | {"repro"} | local
        undeclared = {}
        for path in sorted((ROOT / "src").rglob("*.py")) + sorted(
                (ROOT / "tests").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    top = name.split(".")[0]
                    if top not in ignored and top.lower() not in declared:
                        undeclared.setdefault(top, set()).add(
                            str(path.relative_to(ROOT)))
        assert not undeclared, (
            f"imported but not declared in pyproject.toml: {undeclared}"
        )


class TestBenchmarkHookPoints:
    def test_tracer_installs(self):
        """perfbench/tracer.py wraps layer functions by attribute name,
        so renaming one must fail here, not only in the traced
        benchmark run.  A subprocess, because install() monkeypatches
        modules."""
        import os
        import subprocess
        import sys

        code = ("import sys; sys.path.insert(0, 'perfbench'); "
                "import tracer; tracer.install(tracer.Tracer())")
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT,
            env=dict(os.environ, PYTHONPATH="src"),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


class TestDocsConsistency:
    """The documentation must reference artifacts that actually exist."""

    @pytest.fixture(scope="class")
    def bench_files(self):
        return {p.name for p in (ROOT / "benchmarks").glob("bench_*.py")}

    def test_design_md_bench_targets_exist(self, bench_files):
        text = (ROOT / "DESIGN.md").read_text()
        import re

        for name in set(re.findall(r"bench_[a-z0-9_]+\.py", text)):
            assert name in bench_files, f"DESIGN.md references missing {name}"

    def test_experiments_md_bench_targets_exist(self, bench_files):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        import re

        for name in set(re.findall(r"bench_[a-z0-9_]+\.py", text)):
            assert name in bench_files, (
                f"EXPERIMENTS.md references missing {name}"
            )

    def test_readme_examples_exist(self):
        text = (ROOT / "README.md").read_text()
        import re

        for name in set(re.findall(r"examples/([a-z0-9_]+\.py)", text)):
            assert (ROOT / "examples" / name).exists(), (
                f"README references missing examples/{name}"
            )

    def test_every_experiment_module_documented(self, bench_files):
        """Each bench module appears in EXPERIMENTS.md or README.md
        (bench_engine is substrate-only and exempt)."""
        documented = (ROOT / "EXPERIMENTS.md").read_text() + (
            ROOT / "README.md"
        ).read_text()
        for name in bench_files:
            if name == "bench_engine.py":
                continue
            assert name.replace(".py", "") in documented or name in documented, (
                f"{name} is not documented"
            )

    def test_scenario_registry_matches_docs(self):
        """Every registered scenario has a `### <name>` section in
        docs/scenarios.md, and every documented section names a
        registered scenario — the catalog and the registry cannot
        drift apart."""
        import re

        from repro.scenarios import scenario_names

        text = (ROOT / "docs" / "scenarios.md").read_text()
        documented = set(re.findall(r"^### ([a-z0-9-]+)\s*$", text,
                                    flags=re.MULTILINE))
        registered = set(scenario_names())
        assert registered - documented == set(), (
            f"scenarios missing from docs/scenarios.md: "
            f"{sorted(registered - documented)}"
        )
        assert documented - registered == set(), (
            f"docs/scenarios.md documents unregistered scenarios: "
            f"{sorted(documented - registered)}"
        )

    def test_documented_cli_verbs_exist(self):
        """Every `python -m repro.cli <verb>` (and `repro scenarios
        <subverb>`) mentioned in the docs must exist in the parser."""
        import argparse
        import re

        from repro.cli import build_parser

        def subcommands(parser):
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    return action.choices
            return {}

        parser = build_parser()
        verbs = subcommands(parser)
        scenario_verbs = subcommands(verbs["scenarios"])
        stats_verbs = subcommands(verbs["stats"])
        obs_verbs = subcommands(verbs["obs"])
        farm_verbs = subcommands(verbs["farm"])

        docs = "".join(
            p.read_text()
            for p in (ROOT / "README.md", ROOT / "EXPERIMENTS.md",
                      ROOT / "docs" / "scenarios.md",
                      ROOT / "docs" / "traffic_models.md",
                      ROOT / "docs" / "statistics.md",
                      ROOT / "docs" / "observability.md",
                      ROOT / "docs" / "parallel.md")
        )
        for verb in set(re.findall(r"python -m repro\.cli (\w+)", docs)):
            assert verb in verbs, f"docs reference unknown CLI verb {verb!r}"
        for sub in set(re.findall(r"repro(?:\.cli)? scenarios (\w+)", docs)):
            assert sub in scenario_verbs, (
                f"docs reference unknown `scenarios` subcommand {sub!r}"
            )
        for sub in set(re.findall(r"repro(?:\.cli)? stats (\w+)", docs)):
            assert sub in stats_verbs, (
                f"docs reference unknown `stats` subcommand {sub!r}"
            )
        for sub in set(re.findall(r"repro(?:\.cli)? obs (\w+)", docs)):
            assert sub in obs_verbs, (
                f"docs reference unknown `obs` subcommand {sub!r}"
            )
        for sub in set(re.findall(r"repro(?:\.cli)? farm (\w+)", docs)):
            assert sub in farm_verbs, (
                f"docs reference unknown `farm` subcommand {sub!r}"
            )

    def test_statistics_docs_match_code(self):
        """docs/statistics.md must document every summary column and
        every replicates-block key — the statistics reference and the
        code cannot drift apart (mirrors the scenario-catalog test)."""
        from repro.scenarios.spec import REPLICATES_DEFAULTS
        from repro.stats import SUMMARY_COLUMNS

        text = (ROOT / "docs" / "statistics.md").read_text()
        for column in SUMMARY_COLUMNS:
            assert f"`{column}`" in text, (
                f"docs/statistics.md does not document summary column "
                f"{column!r}"
            )
        for key in list(REPLICATES_DEFAULTS) + ["target_half_width"]:
            assert f"`{key}`" in text, (
                f"docs/statistics.md does not document replicates key "
                f"{key!r}"
            )

    def test_traffic_and_value_kinds_documented(self):
        """docs/traffic_models.md must cover every spec-addressable
        traffic kind and value kind."""
        from repro.scenarios import TRAFFIC_KINDS, VALUE_KINDS

        text = (ROOT / "docs" / "traffic_models.md").read_text()
        for kind in list(TRAFFIC_KINDS) + list(VALUE_KINDS):
            assert f"`{kind}`" in text, (
                f"docs/traffic_models.md does not document kind {kind!r}"
            )

    def test_backend_registry_matches_docs(self):
        """Every registered backend has a `### <name>` section in
        docs/backends.md and vice versa — the backend reference and the
        registry cannot drift apart (mirrors the scenario-catalog
        test)."""
        import re

        from repro.simulation.backends import BACKENDS

        text = (ROOT / "docs" / "backends.md").read_text()
        documented = set(re.findall(r"^### ([a-z0-9-]+)\s*$", text,
                                    flags=re.MULTILINE))
        registered = set(BACKENDS)
        assert registered - documented == set(), (
            f"backends missing from docs/backends.md: "
            f"{sorted(registered - documented)}"
        )
        assert documented - registered == set(), (
            f"docs/backends.md documents unregistered backends: "
            f"{sorted(documented - registered)}"
        )

    def test_bench_engine_snapshot_committed_and_sane(self):
        """BENCH_engine.json (written by benchmarks/bench_engine.py)
        must be committed, deterministic in shape (sorted keys, trailing
        newline, no timestamps), cover the advertised grid, and show the
        fast backend's headline speedup (>=10x on some N>=32 row)."""
        import json

        path = ROOT / "BENCH_engine.json"
        assert path.exists(), (
            "BENCH_engine.json is missing; regenerate with "
            "`python benchmarks/bench_engine.py`"
        )
        raw = path.read_text()
        snapshot = json.loads(raw)
        canonical = json.dumps(snapshot, indent=2, sort_keys=True,
                               allow_nan=False) + "\n"
        assert raw == canonical, (
            "BENCH_engine.json is not in canonical form "
            "(indent=2, sort_keys, trailing newline)"
        )
        assert "time" not in str(sorted(snapshot)) and "date" not in str(
            sorted(snapshot)
        )
        assert snapshot["schema"] == 1
        rows = snapshot["rows"]
        for row in rows:
            assert set(row) == {
                "policy", "model", "n_ports", "batch", "arrival_slots",
                "reference_slots_per_sec", "fast_slots_per_sec", "speedup",
            }
            assert row["speedup"] > 0
        cells = {(r["policy"], r["n_ports"]) for r in rows}
        for n in (8, 32, 64, 128, 256):
            for policy in ("gm", "pg", "cgu"):
                assert (policy, n) in cells, f"missing bench cell {policy}@{n}"
        best = max(r["speedup"] for r in rows if r["n_ports"] >= 32)
        assert best >= 10.0, (
            f"fast backend's best large-N speedup regressed to {best}x"
        )

    def test_opt_modes_match_docs(self):
        """Every registered OPT solver mode has a `### <mode>` section in
        docs/offline_opt.md and vice versa — the solver-mode reference
        and the dispatch table cannot drift apart (mirrors the backend
        and scenario catalog tests)."""
        import re

        from repro.offline.opt import OPT_MODES

        text = (ROOT / "docs" / "offline_opt.md").read_text()
        documented = set(re.findall(r"^### ([a-z0-9-]+)\s*$", text,
                                    flags=re.MULTILINE))
        registered = set(OPT_MODES)
        assert registered - documented == set(), (
            f"OPT modes missing from docs/offline_opt.md: "
            f"{sorted(registered - documented)}"
        )
        assert documented - registered == set(), (
            f"docs/offline_opt.md documents unregistered OPT modes: "
            f"{sorted(documented - registered)}"
        )

    def test_bench_opt_snapshot_committed_and_sane(self):
        """BENCH_opt.json (written by benchmarks/bench_opt.py) must be
        committed, canonical in form, cover the advertised grid (exact
        comparison cells, <= 5% scenario width cells, N in {8, 16, 64}
        scale cells with horizons up to 10^6), and demonstrate the
        headline >= 10x speedup of the scalable modes over exact."""
        import json

        path = ROOT / "BENCH_opt.json"
        assert path.exists(), (
            "BENCH_opt.json is missing; regenerate with "
            "`python benchmarks/bench_opt.py`"
        )
        raw = path.read_text()
        snapshot = json.loads(raw)
        canonical = json.dumps(snapshot, indent=2, sort_keys=True,
                               allow_nan=False) + "\n"
        assert raw == canonical, (
            "BENCH_opt.json is not in canonical form "
            "(indent=2, sort_keys, trailing newline)"
        )
        assert snapshot["schema"] == 1
        rows = snapshot["rows"]
        keys = {
            "cell", "kind", "model", "n_ports", "arrival_slots",
            "workload", "window", "exact_status", "exact_seconds",
            "windowed_seconds", "bounds_seconds",
            "windowed_width_vs_exact", "bounds_width_vs_exact",
            "windowed_rel_width", "bounds_rel_width",
            "speedup_windowed", "speedup_bounds",
            "speedup_floor_vs_exact",
        }
        for row in rows:
            assert set(row) == keys, f"schema drift in cell {row.get('cell')}"
        by_kind = {}
        for row in rows:
            by_kind.setdefault(row["kind"], []).append(row)

        # Comparison cells: exact measured, and the scalable modes beat
        # it by >= 10x where they ran.
        comparison = by_kind["comparison"]
        assert all(r["exact_status"] == "measured" for r in comparison)
        best_measured = max(
            r["speedup_bounds"] for r in comparison if r["speedup_bounds"]
        )
        assert best_measured >= 10.0, (
            f"measured bounds-vs-exact speedup regressed to {best_measured}x"
        )

        # Scenario cells: certified widths within 5% of exact OPT on the
        # builtin non-adversarial scenarios.
        scenarios = by_kind["scenario"]
        assert len(scenarios) >= 3
        for row in scenarios:
            assert row["exact_status"] == "measured"
            assert row["windowed_width_vs_exact"] <= 0.05, (
                f"windowed bracket too wide on {row['cell']}: "
                f"{row['windowed_width_vs_exact']}"
            )

        # Scale cells: exact infeasible, N in {8, 16, 64}, horizons up
        # to 10^6 slots, and a certified >= 10x speedup floor.
        scale = by_kind["scale"]
        assert all(r["exact_status"] == "infeasible" for r in scale)
        assert all(r["exact_seconds"] is None for r in scale)
        ports = {r["n_ports"] for r in scale}
        assert {8, 16, 64} <= ports, f"missing scale port counts: {ports}"
        assert max(r["arrival_slots"] for r in scale) >= 10**6
        floors = [r["speedup_floor_vs_exact"] for r in scale
                  if r["speedup_floor_vs_exact"] is not None]
        assert floors and max(floors) >= 10.0, (
            f"certified speedup floor regressed: {floors}"
        )

    def test_metric_catalog_matches_docs(self):
        """Every metric in ``repro.obs.METRIC_CATALOG`` has a
        `### <name>` section in docs/observability.md and vice versa —
        the metric reference and the catalog cannot drift apart
        (mirrors the scenario/backend/OPT catalog tests)."""
        import re

        from repro.obs import METRIC_CATALOG

        text = (ROOT / "docs" / "observability.md").read_text()
        documented = set(re.findall(r"^### ([a-z0-9_-]+)\s*$", text,
                                    flags=re.MULTILINE))
        registered = set(METRIC_CATALOG)
        assert registered - documented == set(), (
            f"metrics missing from docs/observability.md: "
            f"{sorted(registered - documented)}"
        )
        assert documented - registered == set(), (
            f"docs/observability.md documents uncatalogued metrics: "
            f"{sorted(documented - registered)}"
        )

    def test_bench_obs_snapshot_committed_and_sane(self):
        """BENCH_obs.json (written by benchmarks/bench_obs.py) must be
        committed, canonical in form, cover gm/cgu on both backends,
        respect the overhead budgets (off <= 5%, on <= 25%), and attest
        that no recorder mode perturbed a payload field."""
        import json

        path = ROOT / "BENCH_obs.json"
        assert path.exists(), (
            "BENCH_obs.json is missing; regenerate with "
            "`python benchmarks/bench_obs.py`"
        )
        raw = path.read_text()
        snapshot = json.loads(raw)
        canonical = json.dumps(snapshot, indent=2, sort_keys=True,
                               allow_nan=False) + "\n"
        assert raw == canonical, (
            "BENCH_obs.json is not in canonical form "
            "(indent=2, sort_keys, trailing newline)"
        )
        assert snapshot["schema"] == 1
        budgets = snapshot["budgets"]
        assert budgets == {"off_overhead_pct": 5.0, "on_overhead_pct": 25.0}
        rows = snapshot["rows"]
        for row in rows:
            assert set(row) == {
                "policy", "model", "backend", "n_ports", "batch",
                "arrival_slots", "base_slots_per_sec",
                "off_overhead_pct", "on_overhead_pct",
                "payloads_identical",
            }
            assert row["payloads_identical"] is True
            assert row["off_overhead_pct"] <= budgets["off_overhead_pct"], (
                f"{row['policy']}/{row['backend']}: committed off "
                f"overhead {row['off_overhead_pct']}% exceeds budget"
            )
            assert row["on_overhead_pct"] <= budgets["on_overhead_pct"], (
                f"{row['policy']}/{row['backend']}: committed on "
                f"overhead {row['on_overhead_pct']}% exceeds budget"
            )
        cells = {(r["policy"], r["backend"]) for r in rows}
        for policy in ("gm", "cgu"):
            for backend in ("reference", "fast"):
                assert (policy, backend) in cells, (
                    f"missing obs bench cell {policy}/{backend}"
                )

    def test_bench_farm_snapshot_committed_and_sane(self):
        """BENCH_farm.json (written by benchmarks/bench_farm.py) must be
        committed, canonical in form, show a >= 4x resume speedup at 75%
        store hits, a <= 5% persistent-pool spawn overhead across ten
        run() calls, and attest cold/warm/resumed payload identity."""
        import json

        path = ROOT / "BENCH_farm.json"
        assert path.exists(), (
            "BENCH_farm.json is missing; regenerate with "
            "`python benchmarks/bench_farm.py`"
        )
        raw = path.read_text()
        snapshot = json.loads(raw)
        canonical = json.dumps(snapshot, indent=2, sort_keys=True,
                               allow_nan=False) + "\n"
        assert raw == canonical, (
            "BENCH_farm.json is not in canonical form "
            "(indent=2, sort_keys, trailing newline)"
        )
        assert snapshot["schema"] == 1
        budgets = snapshot["budgets"]
        assert budgets == {"resume_speedup_min": 4.0,
                           "pool_overhead_pct_max": 5.0}
        sweep = snapshot["sweep"]
        assert sweep["cached_fraction"] == 0.75
        assert sweep["payloads_identical"] is True
        assert sweep["resume_speedup_vs_cold"] >= budgets[
            "resume_speedup_min"], (
            f"committed resume speedup {sweep['resume_speedup_vs_cold']}x "
            f"is below the {budgets['resume_speedup_min']}x budget"
        )
        pool = snapshot["pool"]
        assert pool["runs"] == 10 and pool["workers"] >= 2
        assert pool["spawn_overhead_pct"] <= budgets[
            "pool_overhead_pct_max"], (
            f"committed pool spawn overhead {pool['spawn_overhead_pct']}% "
            f"exceeds the {budgets['pool_overhead_pct_max']}% budget"
        )

    def test_paper_mapping_module_references_resolve(self):
        """Every `repro.x.y` dotted path in docs/paper_mapping.md must
        import."""
        import importlib
        import re

        text = (ROOT / "docs" / "paper_mapping.md").read_text()
        for dotted in set(re.findall(r"`(repro(?:\.[a-z_]+)+)", text)):
            parts = dotted.split(".")
            # Find the longest importable module prefix, then resolve
            # the remaining attributes.
            for cut in range(len(parts), 0, -1):
                try:
                    obj = importlib.import_module(".".join(parts[:cut]))
                    break
                except ImportError:
                    continue
            else:  # pragma: no cover
                raise AssertionError(f"cannot import any prefix of {dotted}")
            for attr in parts[cut:]:
                assert hasattr(obj, attr), (
                    f"paper_mapping.md references missing {dotted}"
                )
                obj = getattr(obj, attr)
