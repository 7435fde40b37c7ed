package repro.bench

import repro.SparkSpec
import repro.harness.Experiments

/** Figure 5 — TC-Tree query performance: QBA (q = S, ascending α_q) and QBP
  * (α_q = 0, patterns per layer). Asserts the paper's shapes: RN and query
  * time fall as α_q rises; RN rises with query pattern length; and query
  * answering retrieves nodes at high throughput (the paper's headline is
  * 1M trusses within 1 second).
  */
class Fig5QueryBench extends SparkSpec {

  for (d <- Experiments.fig5Datasets) test(s"Figure 5 on ${d.name}") {
    val (tree, qba, qbp) = Experiments.printFig5(spark, d)

    assert(qba.head.retrievedNodes == tree.nNodes)
    assert(qba.last.retrievedNodes == 0)
    val rns = qba.map(_.retrievedNodes)
    assert(rns == rns.sorted.reverse, "RN must fall as alpha_q rises")
    // Throughput at alpha_q = 0: retrieving a node must be cheap (paper:
    // 1M nodes / second in C++; we allow 100x slack on the JVM).
    val perNodeMicros = qba.head.avgQueryMicros / math.max(1, qba.head.retrievedNodes)
    println(f"per-node retrieval cost: $perNodeMicros%.2f us")
    assert(perNodeMicros < 100.0, f"query too slow: $perNodeMicros%.1f us/node")

    assert(qbp.nonEmpty)
    // RN grows with query pattern length (every prefix node is retrieved).
    val avgRn = qbp.sortBy(_.patternLen).map(_.avgRetrievedNodes)
    assert(avgRn.zip(avgRn.tail).forall { case (a, b) => b >= a - 1e-9 },
      s"RN should not fall with pattern length: $avgRn")
  }
}
