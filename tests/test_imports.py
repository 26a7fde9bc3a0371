"""Import-time hygiene: the query path does not load optional heavy modules."""

import os
import subprocess
import sys

import repro


def test_serving_imports_do_not_load_networkx():
    # A fresh interpreter: this test process may have imported networkx
    # through other tests already.
    code = (
        "import sys\n"
        "import repro.io\n"
        "from repro.serve import Server\n"
        "print('networkx' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={
            **os.environ,
            "PYTHONPATH": os.path.dirname(os.path.dirname(repro.__file__)),
        },
    )
    assert out.stdout.strip() == "False"


def test_treewidth_names_stay_importable_from_lineage():
    from repro.lineage import primal_graph, treewidth_exact, treewidth_upper_bound
    from repro.lineage import treewidth

    assert primal_graph is treewidth.primal_graph
    assert treewidth_exact is treewidth.treewidth_exact
    assert treewidth_upper_bound is treewidth.treewidth_upper_bound
