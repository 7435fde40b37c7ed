package repro.bench

import repro.SparkSpec
import repro.harness.Experiments

/** Table 3 — TC-Tree indexing performance (time, memory, #nodes) on the
  * four container-scale networks.
  */
class Table3IndexingBench extends SparkSpec {

  test("Table 3: TC-Tree indexing performance") {
    val rows = Experiments.table3(spark)
    println("== Table 3: indexing performance of TC-Tree ==")
    println(Experiments.formatTable3(rows))

    assert(rows.map(_.name) == Seq("BK", "GW", "AMINER", "SYN"))
    // Every dataset indexes successfully with a non-trivial tree.
    assert(rows.forall(_.nNodes > 0))
    assert(rows.forall(_.indexingTimeMs > 0))
    // Paper shape (EXPERIMENTS.md): AMINER's large item set gives the most
    // nodes, then SYN, GW and BK.
    val nodes = rows.map(r => r.name -> r.nNodes).toMap
    assert(nodes("AMINER") > nodes("SYN") && nodes("SYN") > nodes("GW") && nodes("GW") > nodes("BK"), nodes)
  }
}
