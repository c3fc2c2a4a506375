"""Tables I, III and IV — the paper's static matrices, regenerated from
the live registries (so they stay true to what the code implements)."""

from repro.harness.experiments import table1_features, table3_systems, table4_workloads
from repro.harness.report import render_table


def test_table1_features():
    rows = table1_features()
    print()
    print(render_table(rows, "Table I — comparison with earlier work"))
    assert len(rows) == 4
    assert all(r["MPI4Spark"] in ("yes", "MPI-Based Netty") for r in rows)


def test_table3_systems():
    rows = table3_systems()
    print()
    print(render_table(rows, "Table III — hardware specification"))
    names = {r["System"] for r in rows}
    assert names == {"Frontera", "Stampede2", "Internal Cluster"}
    by_name = {r["System"]: r for r in rows}
    assert by_name["Frontera"]["Interconnect"] == "IB-HDR (100G)"
    assert by_name["Stampede2"]["HT"] == "2 threads/core"
    assert by_name["Internal Cluster"]["Nodes"] == "2"


def test_table4_workloads():
    rows = table4_workloads()
    print()
    print(render_table(rows, "Table IV — benchmark suite inventory"))
    workloads = {r["Workload"] for r in rows}
    assert workloads == {
        "GroupByTest", "SortByTest",
        "SVM", "LR", "GMM", "LDA", "Repartition", "TeraSort", "NWeight",
    }
    categories = {r["Category"] for r in rows}
    assert "Machine Learning" in categories
    assert "Graph" in categories
