package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.harness.Experiments

/** Table 2 — statistics of the database networks (paper scale vs. ours is
  * recorded in EXPERIMENTS.md). Asserts the paper's qualitative orderings.
  */
class Table2StatsBench extends AnyFunSuite {

  test("Table 2: dataset statistics") {
    val rows = Experiments.table2()
    println("== Table 2: statistics of the database networks ==")
    println(Experiments.formatTable2(rows))

    val byName = rows.map(r => r.name -> r.stats).toMap
    // Paper orderings: GW denser than BK; SYN has the most edges per vertex;
    // BK has the smallest vocabulary; every count positive.
    assert(byName("GW").nEdges.toDouble / byName("GW").nVertices >
           byName("BK").nEdges.toDouble / byName("BK").nVertices)
    assert(byName.values.forall(s => s.nVertices > 0 && s.nEdges > 0 && s.nTransactions > 0))
    assert(byName("BK").nItemsUnique == byName.values.map(_.nItemsUnique).min)
    // #Items(total) >= #Transactions (every transaction is non-empty).
    assert(byName.values.forall(s => s.nItemsTotal >= s.nTransactions))
  }
}
