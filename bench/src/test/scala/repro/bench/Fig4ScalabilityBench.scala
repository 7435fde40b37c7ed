package repro.bench

import repro.SparkSpec
import repro.harness.Experiments

/** Figure 4 — scalability at worst case α = 0: runtime, NP, NV/NP, NE/NP as
  * the BFS-sampled network grows. Asserts the paper's shapes: NP grows with
  * network size, trusses stay small local subgraphs, and TCFA and TCFI agree.
  */
class Fig4ScalabilityBench extends SparkSpec {

  for (s <- Experiments.fig4Series) test(s"Figure 4 scalability on ${s.name}") {
    val rows = Experiments.printFig4(spark, s)

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
}
