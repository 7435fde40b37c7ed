package repro.harness

import repro.SparkSpec
import repro.index.TCTree
import repro.netgen.NetGen

/** Smoke + invariant tests for the experiment harness at miniature scale;
  * the full-scale runs live in the bench project.
  */
class ExperimentsSuite extends SparkSpec {

  private lazy val tinyDatasets = Seq(
    Experiments.DatasetSpec("BK", () => NetGen.bkLike(200, seed = 71)),
    Experiments.DatasetSpec("AMINER", () => NetGen.aminerLike(150, 8, 50, seed = 72)),
  )

  test("table2 reports positive statistics for every dataset") {
    val rows = Experiments.table2(tinyDatasets)
    assert(rows.map(_.name) == Seq("BK", "AMINER"))
    for (r <- rows) {
      assert(r.stats.nVertices > 0 && r.stats.nEdges > 0)
      assert(r.stats.nItemsTotal >= r.stats.nTransactions)
      assert(r.stats.nItemsUnique <= r.stats.nItemsTotal)
    }
    assert(Experiments.formatTable2(rows).linesIterator.size == 3)
  }

  test("table3 builds a TC-Tree per dataset and reports node counts") {
    val rows = Experiments.table3(spark, tinyDatasets)
    for (r <- rows) {
      assert(r.nNodes > 0, r.name)
      assert(r.indexingTimeMs >= 0)
    }
    assert(Experiments.formatTable3(rows).nonEmpty)
  }

  test("fig3 rows: TCFA and TCFI find the same NP at every alpha") {
    val net = NetGen.bfsSample(NetGen.bkLike(200, seed = 73), 150)
    val rows = Experiments.fig3(spark, net, alphas = Seq(0.0, 0.3), epss = Seq(0.2))
    val byAlpha = rows.groupBy(_.alpha)
    for ((a, rs) <- byAlpha) {
      val np = rs.filter(r => r.method == "TCFA" || r.method == "TCFI").map(_.np)
      assert(np.distinct.size == 1, s"alpha=$a TCFA/TCFI NP differ: $np")
    }
    assert(Experiments.formatMinerRows(rows).nonEmpty)
  }

  test("fig3 rows: NP does not increase with alpha (exact methods)") {
    val net = NetGen.bfsSample(NetGen.bkLike(200, seed = 74), 150)
    val rows = Experiments.fig3(spark, net, alphas = Seq(0.0, 0.5), epss = Seq(0.3))
    val tcfi = rows.filter(_.method == "TCFI").sortBy(_.alpha).map(_.np)
    assert(tcfi == tcfi.sorted.reverse)
  }

  test("fig4 rows: NP grows with sampled size; cutoffs drop slow methods") {
    val base = NetGen.bkLike(300, seed = 75)
    val rows = Experiments.fig4(spark, base, sizes = Seq(100, 250), tcsCutoff = 100, tcfaCutoff = 250)
    val tcfi = rows.filter(_.method == "TCFI").sortBy(_.mEdges).map(_.np)
    assert(tcfi == tcfi.sorted)
    assert(rows.count(_.method.startsWith("TCS")) == 1) // only the 100-edge run
    assert(Experiments.formatFig4(rows).nonEmpty)
  }

  test("fig5 QBA: ends at zero retrieved nodes, RN non-increasing") {
    val c = NetGen.aminerLike(150, 8, 50, seed = 76).compact
    val tree = TCTree.build(spark, c, maxDepth = 3)
    val rows = Experiments.fig5Qba(tree, c.items.toSet)
    assert(rows.last.retrievedNodes == 0)
    val rns = rows.map(_.retrievedNodes)
    assert(rns == rns.sorted.reverse)
    assert(rows.head.retrievedNodes == tree.nNodes)
    assert(Experiments.formatQba(rows).nonEmpty)
  }

  test("fig5 QBP: longer query patterns retrieve at least as many nodes") {
    val c = NetGen.aminerLike(150, 8, 50, seed = 77).compact
    val tree = TCTree.build(spark, c, maxDepth = 3)
    val rows = Experiments.fig5Qbp(tree)
    assert(rows.nonEmpty)
    // RN for a length-L query >= L sub-pattern nodes exist on its root path.
    for (r <- rows) assert(r.avgRetrievedNodes >= r.patternLen.toDouble - 1e-9)
    assert(Experiments.formatQbp(rows).nonEmpty)
  }

  test("caseStudy surfaces named keyword communities on the AMINER-like net") {
    val net = NetGen.aminerLike(150, 8, 50, seed = 78)
    val cs = Experiments.caseStudy(spark, net)
    assert(cs.nonEmpty)
    for (c <- cs) {
      assert(c.keywords.forall(_.startsWith("kw")))
      assert(c.members.forall(_.startsWith("author")))
      assert(c.size >= 3)
    }
    assert(Experiments.formatCaseStudy(cs).nonEmpty)
  }
}
