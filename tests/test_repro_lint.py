"""Unit tests for the project AST lint (``tools/repro_lint.py``).

Each rule is exercised against a synthetic ``src/repro`` tree rooted in a
temp directory (``lint_file`` takes the root explicitly, so the scoping
logic under test is exactly the one CI runs), and the final test pins the
real tree clean — the lint's findings are part of the repo's contract.
"""

import ast
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import repro_lint  # noqa: E402


def _lint(tmp_path: Path, rel: str, source: str):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return repro_lint.lint_file(path, root=tmp_path)


def _codes(findings):
    return [f.code for f in findings]


@pytest.fixture(scope="module")
def real_tree_findings():
    """The findings on the real tree, linted once for every test that reads them."""
    return repro_lint.lint_tree()


class TestSentinelRule:
    def test_raw_minus_two_flagged(self, tmp_path):
        findings = _lint(tmp_path, "src/repro/sim/x.py", "bad = value == -2\n")
        assert _codes(findings) == ["REP001"]
        assert "MISDELIVER" in findings[0].message

    def test_raw_minus_three_flagged(self, tmp_path):
        findings = _lint(tmp_path, "src/repro/routing/x.py", "tbl[mask] = -3\n")
        assert _codes(findings) == ["REP001"]
        assert "DROPPED" in findings[0].message

    def test_definition_site_exempt(self, tmp_path):
        src = "MISDELIVER = -2\nDROPPED = -3\n"
        assert _lint(tmp_path, "src/repro/routing/program.py", src) == []

    def test_definition_names_only_exempt_at_module_level(self, tmp_path):
        src = "def f():\n    MISDELIVER = -2\n    return MISDELIVER\n"
        assert _codes(_lint(tmp_path, "src/repro/routing/x.py", src)) == ["REP001"]

    def test_wrong_name_not_exempt(self, tmp_path):
        assert _codes(_lint(tmp_path, "src/repro/sim/x.py", "LOST = -2\n")) == ["REP001"]

    def test_swapped_sentinel_values_not_exempt(self, tmp_path):
        # MISDELIVER = -3 is precisely the renumbering bug the rule exists
        # to catch — the name does not launder the wrong literal.
        assert _codes(_lint(tmp_path, "src/repro/sim/x.py", "MISDELIVER = -3\n")) == ["REP001"]

    def test_escape_comment(self, tmp_path):
        src = "slot = -2  # repro-lint: allow-sentinel (argparse default)\n"
        assert _lint(tmp_path, "src/repro/sim/x.py", src) == []

    def test_escape_inside_string_is_not_an_escape(self, tmp_path):
        src = 'msg = "repro-lint: allow-sentinel"; bad = -2\n'
        assert _codes(_lint(tmp_path, "src/repro/sim/x.py", src)) == ["REP001"]

    def test_other_negatives_ignored(self, tmp_path):
        src = "a = -1\nb = -4\nc = x[-2:]\n"
        # A slice's -2 *is* a raw literal node, but slices of sequences are
        # out of the sentinel protocol; the lint intentionally still flags
        # it so the author writes the escape and a reason.
        findings = _lint(tmp_path, "src/repro/sim/x.py", src)
        assert _codes(findings) == ["REP001"]

    def test_out_of_scope_tree_ignored(self, tmp_path):
        assert _lint(tmp_path, "src/repro/analysis/x.py", "bad = -2\n") == []


class TestDtypeRule:
    def test_np_int16_flagged_in_program_module(self, tmp_path):
        src = "import numpy as np\narr = xs.astype(np.int16)\n"
        findings = _lint(tmp_path, "src/repro/routing/program.py", src)
        assert _codes(findings) == ["REP002"]
        assert "transition_dtype" in findings[0].message

    def test_np_int32_flagged_in_engine(self, tmp_path):
        src = "import numpy as np\nz = np.zeros(4, dtype=np.int32)\n"
        assert _codes(_lint(tmp_path, "src/repro/sim/engine.py", src)) == ["REP002"]

    def test_wide_and_tiny_dtypes_allowed(self, tmp_path):
        src = "import numpy as np\na = np.zeros(4, dtype=np.int64)\nb = np.zeros(4, dtype=np.int8)\n"
        assert _lint(tmp_path, "src/repro/sim/faults.py", src) == []

    def test_escape_comment(self, tmp_path):
        src = "import numpy as np\nidx = idx.astype(np.int32)  # repro-lint: allow-dtype (ids)\n"
        assert _lint(tmp_path, "src/repro/sim/faults.py", src) == []

    def test_out_of_scope_module_ignored(self, tmp_path):
        src = "import numpy as np\na = np.zeros(4, dtype=np.int16)\n"
        assert _lint(tmp_path, "src/repro/sim/churn.py", src) == []


class TestDeterminismRule:
    def test_import_random_flagged(self, tmp_path):
        findings = _lint(tmp_path, "src/repro/routing/program.py", "import random\n")
        assert _codes(findings) == ["REP003"]

    def test_from_random_flagged(self, tmp_path):
        src = "from random import shuffle\n"
        assert _codes(_lint(tmp_path, "src/repro/routing/verify.py", src)) == ["REP003"]

    def test_global_sampler_flagged(self, tmp_path):
        src = "import numpy as np\nx = np.random.rand(3)\n"
        findings = _lint(tmp_path, "src/repro/routing/verify.py", src)
        assert _codes(findings) == ["REP003"]

    def test_unseeded_default_rng_flagged(self, tmp_path):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert _codes(_lint(tmp_path, "src/repro/routing/program.py", src)) == ["REP003"]

    def test_seeded_default_rng_allowed(self, tmp_path):
        src = "import numpy as np\nrng = np.random.default_rng(17)\n"
        assert _lint(tmp_path, "src/repro/routing/program.py", src) == []

    def test_no_escape_hatch(self, tmp_path):
        src = "import random  # repro-lint: allow-sentinel\n"
        assert _codes(_lint(tmp_path, "src/repro/routing/program.py", src)) == ["REP003"]

    def test_scheme_modules_may_hold_seeded_rngs(self, tmp_path):
        # landmark/complete schemes draw from seeded rngs: out of REP003's
        # scope (determinism there is the scheme seed's business).
        src = "import numpy as np\nx = np.random.rand(3)\n"
        assert _lint(tmp_path, "src/repro/routing/landmark.py", src) == []


class TestPairLoopRule:
    FLOW = "src/repro/analysis/flow.py"

    def test_for_over_pair_array_flagged(self, tmp_path):
        src = "for pair in pairs:\n    acc[pair] += 1\n"
        findings = _lint(tmp_path, self.FLOW, src)
        assert _codes(findings) == ["REP004"]
        assert "np.add.at" in findings[0].message

    def test_comprehension_over_demand_flagged(self, tmp_path):
        src = "total = sum(w for w in demand_rows)\n"
        assert _codes(_lint(tmp_path, self.FLOW, src)) == ["REP004"]

    def test_tolist_flagged(self, tmp_path):
        src = "for w in weights.tolist():\n    pass\n"
        assert _codes(_lint(tmp_path, self.FLOW, src)) == ["REP004"]

    def test_flat_and_ravel_flagged(self, tmp_path):
        src = "for w in edge_load.flat:\n    pass\nfor v in node_load.ravel():\n    pass\n"
        assert _codes(_lint(tmp_path, self.FLOW, src)) == ["REP004", "REP004"]

    def test_zip_and_enumerate_flagged(self, tmp_path):
        src = (
            "for a, b in zip(srcs, dsts):\n    pass\n"
            "for i, w in enumerate(weights):\n    pass\n"
        )
        assert _codes(_lint(tmp_path, self.FLOW, src)) == ["REP004", "REP004"]

    def test_nditer_flagged(self, tmp_path):
        src = "import numpy as np\nfor w in np.nditer(demand):\n    pass\n"
        assert _codes(_lint(tmp_path, self.FLOW, src)) == ["REP004"]

    def test_attribute_access_flagged(self, tmp_path):
        src = "for row in dm.demand:\n    pass\n"
        assert _codes(_lint(tmp_path, self.FLOW, src)) == ["REP004"]

    def test_layer_loops_and_generators_allowed(self, tmp_path):
        # range() layer loops, generator-function pipelines, .items(), and
        # unmarked names are the module's sanctioned iteration shapes.
        src = (
            "for layer in range(depth):\n    pass\n"
            "for lo, hi in _layer_bounds(bounds):\n    pass\n"
            "for name, dm in registry.items():\n    pass\n"
            "for model in models:\n    pass\n"
        )
        assert _lint(tmp_path, self.FLOW, src) == []

    def test_while_walker_flagged(self, tmp_path):
        # The per-hop frontier walk's shape: advance until no pair is left.
        src = (
            "def walk(idx, cur):\n"
            "    while idx.size:\n"
            "        idx = idx[cur[idx] > 0]\n"
        )
        findings = _lint(tmp_path, self.FLOW, src)
        assert _codes(findings) == ["REP004"]
        assert findings[0].line == 2
        assert "per-hop walker" in findings[0].message

    def test_any_while_flagged_even_without_pair_names(self, tmp_path):
        src = "while True:\n    break\nwhile layer > 0:\n    layer -= 1\n"
        assert _codes(_lint(tmp_path, self.FLOW, src)) == ["REP004", "REP004"]

    def test_while_escape_comment_does_not_apply(self, tmp_path):
        src = "while frontier.size:  # repro-lint: allow-pair-loop (walk)\n    pass\n"
        assert _codes(_lint(tmp_path, self.FLOW, src)) == ["REP004"]

    def test_while_out_of_scope_module_ignored(self, tmp_path):
        src = "while frontier.size:\n    pass\n"
        assert _lint(tmp_path, "src/repro/routing/program.py", src) == []
        assert _lint(tmp_path, "tests/conftest.py", src) == []

    def test_constants_exempt(self, tmp_path):
        src = "out = [build(name) for name in DEMAND_MODELS]\n"
        assert _lint(tmp_path, self.FLOW, src) == []

    def test_escape_comment(self, tmp_path):
        src = "for pair in pairs:  # repro-lint: allow-pair-loop (debug dump)\n    pass\n"
        assert _lint(tmp_path, self.FLOW, src) == []

    def test_out_of_scope_module_ignored(self, tmp_path):
        src = "for pair in pairs:\n    pass\n"
        assert _lint(tmp_path, "src/repro/analysis/runner.py", src) == []


class TestCliPrintRule:
    CLI = "src/repro/cli/x.py"

    def test_bare_print_flagged(self, tmp_path):
        findings = _lint(tmp_path, self.CLI, 'print("progress...")\n')
        assert _codes(findings) == ["REP005"]
        assert "JSONL" in findings[0].message

    def test_emit_allowed(self, tmp_path):
        src = "from repro.cli._output import emit\nemit({'event': 'summary'})\n"
        assert _lint(tmp_path, self.CLI, src) == []

    def test_method_named_print_allowed(self, tmp_path):
        # Only the builtin funnels to stdout; attribute calls are fine.
        assert _lint(tmp_path, self.CLI, "report.print()\n") == []

    def test_escape_comment(self, tmp_path):
        src = 'print(usage)  # repro-lint: allow-print (argparse help text)\n'
        assert _lint(tmp_path, self.CLI, src) == []

    def test_out_of_scope_module_ignored(self, tmp_path):
        # print() elsewhere in the tree is someone else's business.
        assert _lint(tmp_path, "src/repro/analysis/runner.py", 'print("x")\n') == []
        assert _lint(tmp_path, "tools/x.py", 'print("x")\n') == []


class TestPoolImportRule:
    POOLS = (
        "import concurrent.futures\n",
        "from concurrent.futures import ProcessPoolExecutor\n",
        "from concurrent import futures\n",
        "import multiprocessing\n",
        "import multiprocessing.pool as mp\n",
        "from multiprocessing import Pool\n",
        "def f():\n    from multiprocessing import get_context\n",
    )

    @pytest.mark.parametrize("source", POOLS)
    @pytest.mark.parametrize(
        "rel", ["src/repro/cli/main.py", "src/repro/sim/x.py", "src/repro/analysis/flow.py"]
    )
    def test_pool_imports_flagged_outside_the_dispatcher(self, tmp_path, rel, source):
        findings = _lint(tmp_path, rel, source)
        assert _codes(findings) == ["REP006"]
        assert "ShardedRunner.stream" in findings[0].message

    @pytest.mark.parametrize("source", POOLS)
    def test_runner_owns_the_pool(self, tmp_path, source):
        assert _lint(tmp_path, "src/repro/analysis/runner.py", source) == []

    def test_out_of_scope_modules_ignored(self, tmp_path):
        # The enumeration pool in repro.constraints is not a grid sweep.
        src = "import multiprocessing\n"
        assert _lint(tmp_path, "src/repro/constraints/enumeration.py", src) == []
        assert _lint(tmp_path, "tools/x.py", src) == []

    def test_lookalike_names_allowed(self, tmp_path):
        src = "import concurrent\nimport multiprocessing_logging\nfrom . import futures\n"
        assert _lint(tmp_path, "src/repro/cli/x.py", src) == []

    def test_escape_comment_does_not_apply(self, tmp_path):
        src = "import multiprocessing  # repro-lint: allow-pool\n"
        assert _codes(_lint(tmp_path, "src/repro/sim/x.py", src)) == ["REP006"]


class TestScipyImportRule:
    SCIPY = (
        "import scipy\n",
        "import scipy.sparse\n",
        "import scipy.sparse.csgraph as csgraph\n",
        "from scipy import sparse\n",
        "from scipy.sparse.csgraph import shortest_path\n",
        "def f():\n    from scipy.sparse import csr_matrix\n",
    )

    @pytest.mark.parametrize("source", SCIPY)
    @pytest.mark.parametrize(
        "rel",
        [
            "src/repro/graphs/shortest_paths.py",
            "src/repro/sim/faults.py",
            "src/repro/routing/program.py",
            "src/repro/store.py",
        ],
    )
    def test_scipy_imports_flagged_everywhere_in_the_package(self, tmp_path, rel, source):
        findings = _lint(tmp_path, rel, source)
        assert _codes(findings) == ["REP007"]
        assert "bfs_rows" in findings[0].message

    def test_tests_and_benchmarks_may_import_scipy(self, tmp_path):
        src = "from scipy.sparse.csgraph import shortest_path\n"
        assert _lint(tmp_path, "tests/conftest.py", src) == []
        assert _lint(tmp_path, "benchmarks/bench_x.py", src) == []

    def test_lookalike_names_allowed(self, tmp_path):
        src = "import scipy_stub\nfrom . import scipy\nfrom repro import scipy_free\n"
        assert _lint(tmp_path, "src/repro/graphs/x.py", src) == []

    def test_escape_comment_does_not_apply(self, tmp_path):
        src = "import scipy  # repro-lint: allow-scipy\n"
        assert _codes(_lint(tmp_path, "src/repro/graphs/x.py", src)) == ["REP007"]


class TestNetworkxImportRule:
    NETWORKX = (
        "import networkx\n",
        "import networkx as nx\n",
        "import networkx.algorithms.isomorphism as iso\n",
        "from networkx import is_isomorphic\n",
        "from networkx.generators.random_graphs import random_regular_graph\n",
        "def f():\n    import networkx as nx\n",
    )

    @pytest.mark.parametrize("source", NETWORKX)
    @pytest.mark.parametrize(
        "rel",
        [
            "src/repro/graphs/generators.py",
            "src/repro/graphs/properties.py",
            "src/repro/routing/ecube.py",
            "src/repro/store.py",
        ],
    )
    def test_networkx_imports_flagged_everywhere_in_the_package(self, tmp_path, rel, source):
        findings = _lint(tmp_path, rel, source)
        assert _codes(findings) == ["REP010"]
        assert "tests/oracles.py" in findings[0].message

    def test_tests_and_benchmarks_may_import_networkx(self, tmp_path):
        src = "import networkx as nx\n"
        assert _lint(tmp_path, "tests/oracles.py", src) == []
        assert _lint(tmp_path, "benchmarks/bench_x.py", src) == []

    def test_lookalike_names_allowed(self, tmp_path):
        src = "import networkx_stub\nfrom . import networkx\nfrom repro import networkx_free\n"
        assert _lint(tmp_path, "src/repro/graphs/x.py", src) == []

    def test_escape_comment_does_not_apply(self, tmp_path):
        src = "import networkx  # repro-lint: allow-networkx\n"
        assert _codes(_lint(tmp_path, "src/repro/graphs/x.py", src)) == ["REP010"]

    def test_real_tree_never_imports_networkx(self, real_tree_findings):
        root = repro_lint.ROOT
        sites = [
            path.relative_to(root).as_posix()
            for path in sorted((root / "src/repro").rglob("*.py"))
            if list(repro_lint._imports_of(ast.parse(path.read_text()), "networkx"))
        ]
        assert sites == []
        findings = [f for f in real_tree_findings if f.code == "REP010"]
        assert findings == []


class TestPickleImportRule:
    PICKLES = (
        "import pickle\n",
        "import pickle as pkl\n",
        "from pickle import dumps, loads\n",
        "import shelve\n",
        "from shelve import open as open_shelf\n",
        "def f():\n    import pickle\n",
    )

    @pytest.mark.parametrize("source", PICKLES)
    @pytest.mark.parametrize(
        "rel",
        [
            "src/repro/analysis/runner.py",
            "src/repro/store.py",
            "src/repro/graphs/digraph.py",
            "src/repro/cli/main.py",
        ],
    )
    def test_pickle_imports_flagged_everywhere_in_the_package(self, tmp_path, rel, source):
        findings = _lint(tmp_path, rel, source)
        assert _codes(findings) == ["REP012"]
        assert "ProgramStore" in findings[0].message

    def test_the_old_result_pickle_layer_is_flagged(self, tmp_path):
        # The import block of the runner when result rows were pickles
        # beside the store.
        src = "import hashlib\nimport os\nimport pickle\nimport tempfile\nimport warnings\n"
        findings = _lint(tmp_path, "src/repro/analysis/runner.py", src)
        assert [(f.code, f.line) for f in findings] == [("REP012", 3)]

    def test_tests_and_benchmarks_may_pickle(self, tmp_path):
        src = "import pickle\n"
        assert _lint(tmp_path, "tests/test_store.py", src) == []
        assert _lint(tmp_path, "benchmarks/bench_x.py", src) == []

    def test_lookalike_names_allowed(self, tmp_path):
        src = "import pickletools_stub\nfrom . import pickle\nfrom repro import shelved\n"
        assert _lint(tmp_path, "src/repro/graphs/x.py", src) == []

    def test_escape_comment_does_not_apply(self, tmp_path):
        src = "import pickle  # repro-lint: allow-pickle\n"
        assert _codes(_lint(tmp_path, "src/repro/store.py", src)) == ["REP012"]

    def test_real_tree_never_imports_pickle(self, real_tree_findings):
        findings = [f for f in real_tree_findings if f.code == "REP012"]
        assert findings == []


class TestRunnerConstructionRule:
    CONSTRUCTIONS = (
        "runner = ShardedRunner(cache_dir=None, processes=1)\n",
        "def f():\n    return ShardedRunner(processes=1).flow_sweep()\n",
        "from repro.analysis import runner\nr = runner.ShardedRunner(None, 1)\n",
        "def f(runner=None):\n    if runner is None:\n        runner = ShardedRunner()\n",
    )

    @pytest.mark.parametrize("source", CONSTRUCTIONS)
    @pytest.mark.parametrize(
        "rel",
        [
            "src/repro/analysis/resilience.py",
            "src/repro/analysis/table1.py",
            "src/repro/analysis/runner.py",
            "src/repro/sim/conformance.py",
        ],
    )
    def test_constructions_flagged_outside_the_cli(self, tmp_path, rel, source):
        findings = _lint(tmp_path, rel, source)
        assert _codes(findings) == ["REP013"]
        assert "repro/cli" in findings[0].message

    def test_the_old_serial_driver_is_flagged(self, tmp_path):
        # The body of analysis/flow.py's flow_sweep driver.
        src = (
            "def flow_sweep(runner=None, **kwargs):\n"
            "    from repro.analysis.runner import ShardedRunner\n"
            "\n"
            "    if runner is None:\n"
            "        runner = ShardedRunner(cache_dir=None, processes=1)\n"
            "    return runner.flow_sweep(**kwargs)\n"
        )
        findings = _lint(tmp_path, "src/repro/analysis/flow.py", src)
        assert [(f.code, f.line) for f in findings] == [("REP013", 5)]

    @pytest.mark.parametrize("source", CONSTRUCTIONS)
    def test_the_cli_may_construct(self, tmp_path, source):
        assert _lint(tmp_path, "src/repro/cli/main.py", source) == []

    def test_tests_and_benchmarks_may_construct(self, tmp_path):
        src = self.CONSTRUCTIONS[0]
        assert _lint(tmp_path, "tests/test_runner.py", src) == []
        assert _lint(tmp_path, "benchmarks/bench_x.py", src) == []

    def test_other_uses_of_the_name_allowed(self, tmp_path):
        src = (
            "from repro.analysis.runner import ShardedRunner\n"
            "def f(runner: ShardedRunner):\n"
            "    assert isinstance(runner, ShardedRunner)\n"
            "    return runner.stream(spec), ShardedRunnerFactory()\n"
        )
        assert _lint(tmp_path, "src/repro/analysis/churn.py", src) == []

    def test_escape_comment_does_not_apply(self, tmp_path):
        src = "r = ShardedRunner()  # repro-lint: allow-runner\n"
        assert _codes(_lint(tmp_path, "src/repro/sim/x.py", src)) == ["REP013"]

    def test_real_tree_builds_runners_only_in_the_cli(self, real_tree_findings):
        assert [f for f in real_tree_findings if f.code == "REP013"] == []


class TestMethodParameterRule:
    METHODS = (
        "def f(graph, method='bfs'):\n    pass\n",
        "def f(graph, *, method):\n    pass\n",
        "def f(method, /):\n    pass\n",
        "class C:\n    def verify(self, method='auto'):\n        pass\n",
        "async def f(method=None):\n    pass\n",
        "pick = lambda method: method\n",
    )

    @pytest.mark.parametrize("source", METHODS)
    @pytest.mark.parametrize(
        "rel",
        [
            "src/repro/graphs/shortest_paths.py",
            "src/repro/constraints/verifier.py",
            "src/repro/sim/engine.py",
        ],
    )
    def test_method_parameters_flagged_everywhere_in_the_package(self, tmp_path, rel, source):
        findings = _lint(tmp_path, rel, source)
        assert _codes(findings) == ["REP008"]
        assert "tests/oracles.py" in findings[0].message

    def test_other_uses_of_the_word_allowed(self, tmp_path):
        # Methods, attributes, keywords at call sites and local names are
        # not parameters; only a caller-set switch is rejected.
        src = (
            "class C:\n"
            "    @classmethod\n"
            "    def make(cls, methods=()):\n"
            "        method = 'x'\n"
            "        return csgraph.shortest_path(a, method='D'), self.method\n"
        )
        assert _lint(tmp_path, "src/repro/sim/x.py", src) == []

    def test_tests_and_benchmarks_may_take_a_method(self, tmp_path):
        src = "def test_paths(method):\n    pass\n"
        assert _lint(tmp_path, "tests/test_x.py", src) == []
        assert _lint(tmp_path, "benchmarks/bench_x.py", src) == []

    def test_escape_comment_does_not_apply(self, tmp_path):
        src = "def f(method='bfs'):  # repro-lint: allow-method\n    pass\n"
        assert _codes(_lint(tmp_path, "src/repro/graphs/x.py", src)) == ["REP008"]


class TestExplosionCatchRule:
    CATCHES = (
        "try:\n    p = rf.compile_program()\nexcept HeaderStateExplosionError:\n    p = None\n",
        "try:\n    f()\nexcept (KeyError, HeaderStateExplosionError) as exc:\n    raise\n",
        "try:\n    f()\nexcept program.HeaderStateExplosionError:\n    pass\n",
        "def f():\n    try:\n        g()\n    except HeaderStateExplosionError:\n        return 1\n",
    )

    @pytest.mark.parametrize("source", CATCHES)
    @pytest.mark.parametrize(
        "rel",
        [
            "src/repro/sim/engine.py",
            "src/repro/analysis/runner.py",
            "src/repro/routing/model.py",
        ],
    )
    def test_catches_flagged_outside_the_program_module(self, tmp_path, rel, source):
        findings = _lint(tmp_path, rel, source)
        assert _codes(findings) == ["REP009"]
        assert "compile_or_interpret" in findings[0].message

    @pytest.mark.parametrize("source", CATCHES)
    def test_program_module_may_catch(self, tmp_path, source):
        assert _lint(tmp_path, "src/repro/routing/program.py", source) == []

    def test_tests_and_benchmarks_may_catch(self, tmp_path):
        src = self.CATCHES[0]
        assert _lint(tmp_path, "tests/test_x.py", src) == []
        assert _lint(tmp_path, "benchmarks/bench_x.py", src) == []

    def test_other_uses_of_the_name_allowed(self, tmp_path):
        # Importing, raising, re-exporting and catching other errors are
        # not a second compile-or-interpret step.
        src = (
            "from repro.routing.program import HeaderStateExplosionError\n"
            "__all__ = ['HeaderStateExplosionError']\n"
            "def f(n):\n"
            "    try:\n"
            "        g()\n"
            "    except ValueError:\n"
            "        raise HeaderStateExplosionError(n)\n"
            "    except:\n"
            "        pass\n"
        )
        assert _lint(tmp_path, "src/repro/sim/x.py", src) == []

    def test_real_tree_catches_once(self):
        root = repro_lint.ROOT
        sites = [
            (path.relative_to(root).as_posix(), node.lineno)
            for path in sorted((root / "src/repro").rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ExceptHandler)
            and repro_lint.EXPLOSION_ERROR in repro_lint._caught_names(node)
        ]
        assert [rel for rel, _ in sites] == [repro_lint.EXPLOSION_OWNER], sites

    def test_escape_comment_does_not_apply(self, tmp_path):
        src = (
            "try:\n    f()\n"
            "except HeaderStateExplosionError:  # repro-lint: allow-explosion\n    pass\n"
        )
        assert _codes(_lint(tmp_path, "src/repro/sim/x.py", src)) == ["REP009"]


class TestBitWriterRule:
    USES = (
        "from repro.memory.encoding import BitWriter\n",
        "from repro.memory.encoding import BitReader as Reader\n",
        "import repro.memory.encoding as enc\nw = enc.BitWriter()\n",
        "def f(w: 'x'):\n    return BitReader(w)\n",
    )

    @pytest.mark.parametrize("source", USES)
    @pytest.mark.parametrize(
        "rel",
        [
            "src/repro/memory/requirement.py",
            "src/repro/memory/coder.py",
            "src/repro/memory/__init__.py",
            "src/repro/routing/program.py",
        ],
    )
    def test_bit_writers_flagged_outside_the_owners(self, tmp_path, rel, source):
        findings = _lint(tmp_path, rel, source)
        assert set(_codes(findings)) == {"REP011"}
        assert "closed-form" in findings[0].message

    @pytest.mark.parametrize("source", USES)
    @pytest.mark.parametrize(
        "rel", ["src/repro/memory/encoding.py", "src/repro/constraints/reconstruction.py"]
    )
    def test_owners_may_write_bits(self, tmp_path, rel, source):
        assert _lint(tmp_path, rel, source) == []

    def test_tests_and_benchmarks_may_write_bits(self, tmp_path):
        src = self.USES[0] + "w = BitWriter()\n"
        assert _lint(tmp_path, "tests/oracles.py", src) == []
        assert _lint(tmp_path, "benchmarks/bench_x.py", src) == []

    def test_lookalike_names_allowed(self, tmp_path):
        src = "from repro.memory.encoding import fixed_width\nBitWriterish = 1\nbit_writer = 2\n"
        assert _lint(tmp_path, "src/repro/memory/coder.py", src) == []

    def test_escape_comment_does_not_apply(self, tmp_path):
        src = "w = BitWriter()  # repro-lint: allow-bits\n"
        assert _codes(_lint(tmp_path, "src/repro/memory/coder.py", src)) == ["REP011"]

    def test_real_tree_writes_bits_only_in_the_owners(self):
        root = repro_lint.ROOT
        users = sorted(
            path.relative_to(root).as_posix()
            for path in (root / "src/repro").rglob("*.py")
            if any(name in path.read_text() for name in repro_lint.BITS_NAMES)
        )
        assert users == sorted(repro_lint.BITS_OWNERS)


class TestDriver:
    def test_syntax_error_reported_not_raised(self, tmp_path):
        findings = _lint(tmp_path, "src/repro/sim/x.py", "def f(:\n")
        assert _codes(findings) == ["REP000"]

    def test_main_exit_codes(self, tmp_path, capsys):
        path = tmp_path / "src/repro/sim/x.py"
        path.parent.mkdir(parents=True)
        path.write_text("ok = 1\n")
        assert repro_lint.main([str(path)]) == 0
        path.write_text("bad = -2\n")
        assert repro_lint.main([str(path)]) == 1
        out = capsys.readouterr().out
        assert "REP001" in out and "1 finding(s)" in out

    def test_real_tree_is_clean(self, real_tree_findings):
        assert real_tree_findings == [], "\n".join(f.render() for f in real_tree_findings)
