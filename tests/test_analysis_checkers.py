"""Per-checker unit tests for athena-lint, plus the catalog/UIManager
helpers the feature checker and reporters build on.

Each checker gets at least one clean fixture and one violating fixture;
the OpenFlow codec checker additionally runs over the real shipped trio
(which must be clean) and over a deliberately corrupted copy.
"""

import io
import os
import shutil
import textwrap

import pytest

from repro.analysis import ParsedModule
from repro.analysis.checkers import (
    DeterminismChecker,
    FeatureNameChecker,
    HotpathChecker,
    NorthboundChecker,
    OpenFlowCodecChecker,
    TelemetryChecker,
    default_checkers,
)
from repro.core.feature_manager import FeatureManager
from repro.core.features.catalog import FEATURE_CATALOG
from repro.core.query import Query
from repro.core.ui_manager import UIManager
from repro.errors import FeatureError

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_checker(checker, source, path="app/module.py"):
    module = ParsedModule.from_source(textwrap.dedent(source), path)
    return list(checker.check(module))


def rules_of(findings):
    return sorted(f.rule for f in findings)


class TestDefaultCheckers:
    def test_all_six_registered(self):
        names = {checker.name for checker in default_checkers()}
        assert names == {"determinism", "features", "hotpath", "northbound",
                        "openflow-codec", "telemetry"}

    def test_rule_ids_are_unique(self):
        seen = set()
        for checker in default_checkers():
            for rule in checker.rules:
                assert rule not in seen, f"duplicate rule id {rule}"
                seen.add(rule)


class TestDeterminismChecker:
    def test_wall_clock_flagged(self):
        findings = run_checker(
            DeterminismChecker(),
            """
            import time
            a = time.time()
            b = time.time_ns()
            """,
        )
        assert rules_of(findings) == ["ATH101", "ATH101"]

    def test_duration_profiling_allowed(self):
        findings = run_checker(
            DeterminismChecker(),
            """
            import time
            start = time.perf_counter()
            cpu = time.process_time()
            """,
        )
        assert findings == []

    def test_datetime_now_flagged(self):
        findings = run_checker(
            DeterminismChecker(),
            """
            import datetime
            from datetime import datetime as dt
            a = datetime.datetime.now()
            b = dt.utcnow()
            c = datetime.date.today()
            """,
        )
        assert rules_of(findings) == ["ATH102", "ATH102", "ATH102"]

    def test_stdlib_random_flagged_through_alias(self):
        findings = run_checker(
            DeterminismChecker(),
            """
            import random as rnd
            x = rnd.random()
            y = rnd.randint(0, 5)
            """,
        )
        assert rules_of(findings) == ["ATH103", "ATH103"]

    def test_numpy_global_state_flagged_seeded_generator_allowed(self):
        findings = run_checker(
            DeterminismChecker(),
            """
            import numpy as np
            bad = np.random.rand(4)
            unseeded = np.random.default_rng()
            seeded = np.random.default_rng(42)
            generator = np.random.Generator(np.random.PCG64(7))
            """,
        )
        assert rules_of(findings) == ["ATH104", "ATH104"]
        assert {f.line for f in findings} == {3, 4}

    def test_simkernel_is_exempt(self):
        findings = run_checker(
            DeterminismChecker(),
            """
            import time
            now = time.time()
            """,
            path="src/repro/simkernel/clock.py",
        )
        assert findings == []


class TestFeatureNameChecker:
    def test_known_names_clean(self):
        findings = run_checker(
            FeatureNameChecker(),
            """
            query.where("FLOW_PACKET_COUNT", ">", 100)
            query.sort_by("PORT_RX_BYTES")
            DDOS_FEATURES = ["PAIR_FLOW", "FLOW_BYTE_COUNT_VAR"]
            """,
        )
        assert findings == []

    def test_misspelled_catalog_name_flagged_with_suggestion(self):
        findings = run_checker(
            FeatureNameChecker(),
            'query.where("FLOW_PAKET_COUNT", ">", 100)\n',
        )
        assert rules_of(findings) == ["ATH201"]
        assert "did you mean 'FLOW_PACKET_COUNT'" in findings[0].message

    def test_var_siblings_resolve(self):
        findings = run_checker(
            FeatureNameChecker(),
            'p = preprocessor(["FLOW_PACKET_COUNT_VAR"])\n',
        )
        assert findings == []

    def test_textual_query_fieldnames_checked(self):
        findings = run_checker(
            FeatureNameChecker(),
            'q = q_text("FLOW_BYTE_KOUNT > 10 and switch_id == 3")\n',
        )
        assert rules_of(findings) == ["ATH201"]

    def test_preprocessor_weights_keys_checked(self):
        findings = run_checker(
            FeatureNameChecker(),
            """
            p = GeneratePreprocessor(
                features=["FLOW_PACKET_COUNT"],
                weights={"PORT_RX_BITES": 2.0},
            )
            """,
        )
        assert rules_of(findings) == ["ATH201"]
        assert "PORT_RX_BYTES" in findings[0].message

    def test_register_detector_features_checked(self):
        findings = run_checker(
            FeatureNameChecker(),
            """
            manager.register_detector(
                "fanout", learner, features=["SRC_FLOW_FANOUTT"],
            )
            """,
        )
        assert rules_of(findings) == ["ATH201"]
        assert "SRC_FLOW_FANOUT" in findings[0].message

    def test_register_detector_positional_features_checked(self):
        findings = run_checker(
            FeatureNameChecker(),
            'manager.register_detector("x", learner, ["FLOW_PAKET_COUNT"])\n',
        )
        assert rules_of(findings) == ["ATH201"]

    def test_register_detector_known_names_clean(self):
        findings = run_checker(
            FeatureNameChecker(),
            """
            manager.register_detector(
                "fanout", learner, features=["SRC_FLOW_FANOUT", "PAIR_FLOW"],
            )
            """,
        )
        assert findings == []

    def test_sketch_names_clean(self):
        findings = run_checker(
            FeatureNameChecker(),
            """
            query.where("SKETCH_UNIQUE_SRC_EST", ">", 1000)
            DDOS_FEATURES = ["SKETCH_SEEN_HOST_RATIO", "SKETCH_HH_PACKET_SHARE"]
            p = preprocessor(["SKETCH_UNIQUE_DST_PORT_EST"])
            """,
        )
        assert findings == []

    def test_misspelled_sketch_name_suggests_within_family(self):
        # The did-you-mean must come from the SKETCH_* family, not a
        # textually-closer name in another scope.
        findings = run_checker(
            FeatureNameChecker(),
            'query.where("SKETCH_UNIQ_SRC_EST", ">", 1000)\n',
        )
        assert rules_of(findings) == ["ATH201"]
        assert "did you mean 'SKETCH_UNIQUE_SRC_EST'" in findings[0].message

    def test_sketch_var_sibling_rejected(self):
        # Sketch windows are already per-sample deltas: no *_VAR variants
        # exist, and the checker must not invent them.
        findings = run_checker(
            FeatureNameChecker(),
            'p = preprocessor(["SKETCH_TOTAL_PACKETS_VAR"])\n',
        )
        assert rules_of(findings) == ["ATH201"]

    def test_unknown_index_field_is_a_warning(self):
        findings = run_checker(
            FeatureNameChecker(),
            'query.where("switch_idx", "==", 3)\n',
        )
        assert rules_of(findings) == ["ATH202"]
        assert findings[0].severity.value == "warning"
        assert "switch_id" in findings[0].message

    def test_index_fields_and_meta_clean(self):
        findings = run_checker(
            FeatureNameChecker(),
            """
            query.where("switch_id", "==", 3)
            query.where("_id", "!=", 0)
            rows = query.aggregate(["switch_id"], "FLOW_BYTE_COUNT", "sum")
            """,
        )
        assert findings == []


class TestNorthboundChecker:
    def test_correct_calls_clean(self):
        findings = run_checker(
            NorthboundChecker(),
            """
            docs = nb.RequestFeatures(query)
            model = nb.GenerateDetectionModel(
                query, prep, algo, documents=docs
            )
            algo = GenerateAlgorithm("kmeans", n_clusters=8)
            """,
        )
        assert findings == []

    def test_unknown_keyword_flagged_with_suggestion(self):
        findings = run_checker(
            NorthboundChecker(),
            "nb.GenerateDetectionModel(query, prep, algo, documentz=docs)\n",
        )
        assert rules_of(findings) == ["ATH301"]
        assert "did you mean 'documents'" in findings[0].message

    def test_too_many_positionals_flagged(self):
        findings = run_checker(
            NorthboundChecker(),
            "nb.RequestFeatures(query, extra, surplus)\n",
        )
        assert rules_of(findings) == ["ATH302"]

    def test_star_args_not_flagged(self):
        findings = run_checker(
            NorthboundChecker(),
            "nb.RequestFeatures(*args)\n",
        )
        assert findings == []

    def test_snake_case_sites_also_checked(self):
        findings = run_checker(
            NorthboundChecker(),
            "nb.request_features(query, tail)\n",
        )
        assert rules_of(findings) == ["ATH302"]

    def test_unknown_algorithm_flagged(self):
        findings = run_checker(
            NorthboundChecker(),
            'algo = GenerateAlgorithm("kmeanz")\n',
        )
        assert rules_of(findings) == ["ATH303"]
        assert "did you mean 'kmeans'" in findings[0].message

    def test_algorithm_name_keyword_form(self):
        findings = run_checker(
            NorthboundChecker(),
            'algo = Algorithm(name="dbscanx", params={})\n',
        )
        assert rules_of(findings) == ["ATH303"]


class TestOpenFlowCodecChecker:
    TRIO = ("messages.py", "constants.py", "serialization.py")

    def _shipped(self, stem="serialization"):
        path = os.path.join(REPO_ROOT, "src", "repro", "openflow", f"{stem}.py")
        return ParsedModule.parse(path, root=REPO_ROOT)

    def _corrupt_copy(self, tmp_path, mutate):
        package = tmp_path / "openflow"
        package.mkdir()
        for name in self.TRIO:
            shutil.copy(
                os.path.join(REPO_ROOT, "src", "repro", "openflow", name),
                package / name,
            )
        mutate(package)
        return ParsedModule.parse(
            str(package / "serialization.py"), root=str(tmp_path)
        )

    def test_shipped_trio_is_clean(self):
        assert list(OpenFlowCodecChecker().check(self._shipped())) == []

    def test_only_fires_on_serialization(self):
        assert list(OpenFlowCodecChecker().check(self._shipped("messages"))) == []

    def test_unregistered_class_flagged(self, tmp_path):
        def add_class(package):
            with open(package / "messages.py", "a") as handle:
                handle.write(
                    "\n\n@dataclass\nclass RoleRequest(OpenFlowMessage):\n"
                    "    role: int = 0\n"
                )

        module = self._corrupt_copy(tmp_path, add_class)
        findings = list(OpenFlowCodecChecker().check(module))
        assert rules_of(findings) == ["ATH401"]
        assert "RoleRequest" in findings[0].message

    def test_missing_constant_flagged(self, tmp_path):
        def drop_constant(package):
            path = package / "constants.py"
            source = path.read_text()
            path.write_text(source.replace("    BARRIER_REPLY = 19\n", ""))

        module = self._corrupt_copy(tmp_path, drop_constant)
        findings = list(OpenFlowCodecChecker().check(module))
        assert set(rules_of(findings)) == {"ATH403"}
        assert all("BARRIER_REPLY" in f.message for f in findings)
        # both messages.py and serialization.py reference the member
        assert {os.path.basename(f.path) for f in findings} == {
            "messages.py", "serialization.py",
        }

    def test_wire_type_mismatch_flagged(self, tmp_path):
        def swap_wire_type(package):
            path = package / "serialization.py"
            source = path.read_text()
            path.write_text(
                source.replace(
                    "    Hello: MessageType.HELLO,",
                    "    Hello: MessageType.ECHO_REQUEST,",
                    1,
                )
            )

        module = self._corrupt_copy(tmp_path, swap_wire_type)
        findings = list(OpenFlowCodecChecker().check(module))
        assert "ATH404" in rules_of(findings)


class TestCatalogHelpers:
    """Satellite: FEATURE_CATALOG.validate()/resolve() with did-you-mean."""

    def test_resolve_known_roundtrips(self):
        definition = FEATURE_CATALOG.resolve("FLOW_PACKET_COUNT")
        assert definition.name == "FLOW_PACKET_COUNT"

    def test_resolve_unknown_raises_with_nearest_match(self):
        with pytest.raises(FeatureError) as excinfo:
            FEATURE_CATALOG.resolve("FLOW_PAKET_COUNT")
        assert "FLOW_PAKET_COUNT" in str(excinfo.value)
        assert "FLOW_PACKET_COUNT" in str(excinfo.value)

    def test_validate_reports_only_unknown_names(self):
        with pytest.raises(FeatureError):
            FEATURE_CATALOG.validate(["FLOW_PACKET_COUNT", "NOT_A_FEATURE_X"])
        FEATURE_CATALOG.validate(["FLOW_PACKET_COUNT", "PAIR_FLOW"])

    def test_suggest_returns_none_for_gibberish(self):
        assert FEATURE_CATALOG.suggest("ZZZZQQQQ_WXYZ_123") is None

    def test_feature_manager_validates_query_fieldnames(self):
        good = Query().where("FLOW_PACKET_COUNT", ">", 1).where(
            "switch_id", "==", 2
        )
        FeatureManager.validate_query_features(good)
        bad = Query().where("FLOW_PAKET_COUNT", ">", 1)
        with pytest.raises(FeatureError, match="FLOW_PACKET_COUNT"):
            FeatureManager.validate_query_features(bad)


class TestUIManagerStream:
    """Satellite: UIManager writes to an injected stream."""

    def test_show_writes_to_injected_stream(self):
        sink = io.StringIO()
        ui = UIManager(stream=sink)
        ui.show("detection complete")
        assert "detection complete" in sink.getvalue()

    def test_alert_writes_to_injected_stream(self):
        sink = io.StringIO()
        ui = UIManager(stream=sink)
        ui.alert("nae-monitor", "SLA violated", severity="critical")
        assert "[CRITICAL] nae-monitor: SLA violated" in sink.getvalue()

    def test_silent_without_stream_or_echo(self, capsys):
        ui = UIManager()
        ui.show("quiet")
        assert capsys.readouterr().out == ""
        assert ui.last_output() == "quiet"


class TestTelemetryChecker:
    def test_raw_duration_clocks_flagged(self):
        findings = run_checker(
            TelemetryChecker(),
            """
            import time
            from time import process_time
            a = time.perf_counter()
            b = process_time()
            c = time.monotonic_ns()
            """,
        )
        assert rules_of(findings) == ["ATH501", "ATH501", "ATH501"]

    def test_sleep_flagged(self):
        findings = run_checker(
            TelemetryChecker(),
            """
            import time
            time.sleep(0.1)
            """,
        )
        assert rules_of(findings) == ["ATH502"]

    def test_telemetry_clocks_module_is_exempt(self):
        findings = run_checker(
            TelemetryChecker(),
            """
            import time
            now = time.perf_counter()
            """,
            path="src/repro/telemetry/clocks.py",
        )
        assert findings == []

    def test_simkernel_and_backends_are_exempt(self):
        source = """
            import time
            started = time.perf_counter()
            """
        for path in ("src/repro/simkernel/loop.py",
                     "src/repro/compute/backends/process.py"):
            assert run_checker(TelemetryChecker(), source, path=path) == []

    def test_stopwatch_usage_is_clean(self):
        findings = run_checker(
            TelemetryChecker(),
            """
            from repro.telemetry.clocks import Stopwatch
            watch = Stopwatch()
            elapsed = watch.elapsed()
            """,
        )
        assert findings == []

    def test_inline_suppression_works(self, tmp_path):
        from repro.cli import main as cli_main

        src = tmp_path / "profiled.py"
        src.write_text(
            "import time\n"
            "t = time.perf_counter()  # athena-lint: disable=ATH501\n"
        )
        assert cli_main(["lint", str(src), "--no-config"]) == 0

    def test_shipped_tree_is_clean(self):
        """The migrated call sites leave src/repro free of ATH5xx."""
        from repro.analysis import LintEngine

        engine = LintEngine(checkers=[TelemetryChecker()])
        report = engine.run([os.path.join(REPO_ROOT, "src", "repro")])
        assert [f.render() for f in report.findings] == []


class TestHotpathChecker:
    def test_unmarked_module_is_ignored(self):
        findings = run_checker(
            HotpathChecker(),
            """
            from dataclasses import fields

            def slow(obj, headers):
                for f in fields(obj):
                    if getattr(obj, f.name) != headers.get(f.name):
                        return False
                return True
            """,
        )
        assert findings == []

    def test_fields_per_call_flagged_in_hot_module(self):
        findings = run_checker(
            HotpathChecker(),
            """
            # athena-lint: hot-path
            from dataclasses import fields

            def matches(obj, headers):
                return [f.name for f in fields(obj)]
            """,
        )
        assert rules_of(findings) == ["ATH601"]

    def test_getattr_in_loop_flagged(self):
        findings = run_checker(
            HotpathChecker(),
            """
            # athena-lint: hot-path
            def matches(obj, headers):
                for name in obj.names:
                    if getattr(obj, name) != headers.get(name):
                        return False
                return True
            """,
        )
        assert rules_of(findings) == ["ATH602"]

    def test_construction_time_reflection_is_exempt(self):
        findings = run_checker(
            HotpathChecker(),
            """
            # athena-lint: hot-path
            from dataclasses import fields

            class Match:
                def __post_init__(self):
                    self._names = tuple(f.name for f in fields(self))
                    for name in self._names:
                        self._cache = getattr(self, name)

                def __init__(self):
                    self._all = [getattr(self, n) for n in fields(self)]
            """,
        )
        assert findings == []

    def test_getattr_outside_loop_is_clean(self):
        findings = run_checker(
            HotpathChecker(),
            """
            # athena-lint: hot-path
            def lookup(obj):
                return getattr(obj, "port", None)
            """,
        )
        assert findings == []

    def test_row_dict_in_loop_flagged_in_columnar_module(self):
        findings = run_checker(
            HotpathChecker(),
            """
            # athena-lint: hot-path columnar
            def extract(rows):
                out = []
                for row in rows:
                    out.append({"v": row[0], "w": row[1]})
                return out
            """,
        )
        assert rules_of(findings) == ["ATH603"]

    def test_row_dict_in_comprehension_flagged(self):
        findings = run_checker(
            HotpathChecker(),
            """
            # athena-lint: hot-path columnar
            def extract(rows):
                return [dict(v=row[0]) for row in rows]
            """,
        )
        assert rules_of(findings) == ["ATH603"]

    def test_dictcomp_inside_loop_flagged(self):
        findings = run_checker(
            HotpathChecker(),
            """
            # athena-lint: hot-path columnar
            def extract(rows, names):
                out = []
                for row in rows:
                    out.append({n: v for n, v in zip(names, row)})
                return out
            """,
        )
        assert rules_of(findings) == ["ATH603"]

    def test_function_level_dict_is_clean(self):
        """One dict per call is setup, not a per-row allocation."""
        findings = run_checker(
            HotpathChecker(),
            """
            # athena-lint: hot-path columnar
            def summarise(rows):
                totals = {"count": len(rows)}
                index = {name: i for i, name in enumerate(("a", "b"))}
                return totals, index
            """,
        )
        assert findings == []

    def test_plain_hot_path_module_skips_ath603(self):
        """ATH603 is the stricter columnar tier, not the base hot-path one."""
        findings = run_checker(
            HotpathChecker(),
            """
            # athena-lint: hot-path
            def extract(rows):
                return [{"v": row[0]} for row in rows]
            """,
        )
        assert findings == []

    def test_ath603_suppression_honored(self, tmp_path):
        from repro.cli import main as cli_main

        src = tmp_path / "frames.py"
        src.write_text(
            "# athena-lint: hot-path columnar\n"
            "def copy_documents(docs):\n"
            "    return [dict(doc) for doc in docs]"
            "  # athena-lint: disable=ATH603\n"
        )
        assert cli_main(["lint", str(src), "--no-config"]) == 0
        src.write_text(
            "# athena-lint: hot-path columnar\n"
            "def copy_documents(docs):\n"
            "    return [dict(doc) for doc in docs]\n"
        )
        assert cli_main(["lint", str(src), "--no-config"]) == 1

    def test_frame_module_carries_columnar_marker(self):
        frame_src = open(
            os.path.join(REPO_ROOT, "src", "repro", "distdb", "frame.py"),
            encoding="utf-8",
        ).read()
        assert "athena-lint: hot-path columnar" in frame_src

    def test_shipped_hot_modules_are_clean(self):
        """match.py / flowtable.py / distdb / the feature-state engine are
        marked hot-path (so the checker really reads them) and pass with
        no suppression."""
        from repro.analysis import LintEngine

        for parts in (
            ("openflow", "match.py"),
            ("dataplane", "flowtable.py"),
            ("distdb", "collection.py"),
            ("core", "features", "engine.py"),
        ):
            path = os.path.join(REPO_ROOT, "src", "repro", *parts)
            source = open(path, encoding="utf-8").read()
            assert "athena-lint: hot-path" in source
            assert "disable=ATH601" not in source
        engine = LintEngine(checkers=[HotpathChecker()], root=REPO_ROOT)
        report = engine.run([os.path.join(REPO_ROOT, "src", "repro")])
        assert [f.render() for f in report.findings] == []
