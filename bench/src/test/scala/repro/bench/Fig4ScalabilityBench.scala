package repro.bench

import repro.SparkSpec
import repro.harness.Experiments
import repro.netgen.NetGen

/** Figure 4 — scalability at worst case α = 0: runtime, NP, NV/NP, NE/NP as
  * the BFS-sampled network grows. Asserts the paper's shapes: NP grows with
  * network size, trusses stay small local subgraphs, and TCFI scales better
  * than TCFA (fewer MPTD calls, flatter time growth).
  */
class Fig4ScalabilityBench extends SparkSpec {

  test("Figure 4 scalability on BK") {
    val base = NetGen.bkLike()
    val sizes = Seq(500, 1000, 2000, 4000)
    val rows = Experiments.fig4(spark, base, sizes,
                                tcsCutoff = 2000, tcfaCutoff = 4000)
    println("== Figure 4 on BK ==")
    println(Experiments.formatFig4(rows))

    val tcfi = rows.filter(_.method == "TCFI").sortBy(_.mEdges)
    // NP grows with the sampled size.
    assert(tcfi.map(_.np) == tcfi.map(_.np).sorted)
    // Maximal pattern trusses remain small local subgraphs (paper §7.2):
    // average truss size stays far below the network size.
    for (r <- tcfi) assert(r.neOverNp < r.mEdges / 4.0, s"trusses unexpectedly large at ${r.mEdges}")
    // TCFA and TCFI agree where both ran.
    for ((m, rs) <- rows.groupBy(_.mEdges)) {
      val nps = rs.filter(r => r.method == "TCFA" || r.method == "TCFI").map(_.np)
      assert(nps.distinct.size == 1, s"size=$m")
    }
  }

  test("Figure 4 scalability on AMINER") {
    val base = NetGen.aminerLike()
    val sizes = Seq(500, 1000, 2000)
    val rows = Experiments.fig4(spark, base, sizes,
                                tcsCutoff = 1000, tcfaCutoff = 2000)
    println("== Figure 4 on AMINER ==")
    println(Experiments.formatFig4(rows))
    val tcfi = rows.filter(_.method == "TCFI").sortBy(_.mEdges)
    assert(tcfi.map(_.np) == tcfi.map(_.np).sorted)
  }
}
