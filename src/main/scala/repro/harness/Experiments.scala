package repro.harness

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.index.TCTree
import repro.netgen.{GenNet, NetGen}

import scala.util.Random

/** Shared harness behind the `jobs/` entry point and the `bench/` suites:
  * one function per paper table/figure, each returning the printed
  * rows as data so the bench suites can assert the paper's qualitative
  * claims (orderings, monotonicity, crossovers) and EXPERIMENTS.md can diff
  * paper-vs-measured numbers. The inputs and parameters of Figures 3–5 are
  * defined here once (`fig3Samples`, `fig4Series`, `fig5Datasets`), so
  * `jobs/Main` prints the rows the bench records.
  */
object Experiments {

  /** The four evaluation datasets of Table 2, at container scale. */
  final case class DatasetSpec(name: String, gen: () => GenNet)

  def benchDatasets: Seq[DatasetSpec] = Seq(
    DatasetSpec("BK", () => NetGen.bkLike()),
    DatasetSpec("GW", () => NetGen.gwLike()),
    DatasetSpec("AMINER", () => NetGen.aminerLike()),
    DatasetSpec("SYN", () => NetGen.synLike()),
  )

  // ---------------------------------------------------------------- Table 2

  final case class Table2Row(name: String, stats: NetworkStats)

  /** Table 2: dataset statistics (`CompactNetwork.stats`). */
  def table2(datasets: Seq[DatasetSpec] = benchDatasets): Seq[Table2Row] =
    datasets.map(d => Table2Row(d.name, d.gen().compact.stats))

  def formatTable2(rows: Seq[Table2Row]): String = {
    val header = f"${"dataset"}%-8s ${"#Vertices"}%12s ${"#Edges"}%12s ${"#Tx"}%12s ${"#Items(tot)"}%12s ${"#Items(uniq)"}%12s"
    (header +: rows.map { r =>
      f"${r.name}%-8s ${r.stats.nVertices}%12d ${r.stats.nEdges}%12d ${r.stats.nTransactions}%12d ${r.stats.nItemsTotal}%12d ${r.stats.nItemsUnique}%12d"
    }).mkString("\n")
  }

  // ---------------------------------------------------------------- Table 3

  final case class Table3Row(name: String, indexingTimeMs: Long, memoryMB: Double, nNodes: Int, maxDepth: Int)

  /** Used heap once it has settled: collect until two readings agree
    * within 1 MB (at most 10 collections).
    */
  private def settledHeap(): Long = {
    val mem = java.lang.management.ManagementFactory.getMemoryMXBean
    def read(): Long = { System.gc(); mem.getHeapMemoryUsage.getUsed }
    var prev = read(); var cur = read(); var i = 2
    while (i < 10 && math.abs(cur - prev) > (1L << 20)) { prev = cur; cur = read(); i += 1 }
    cur
  }

  /** Table 3: TC-Tree indexing time, memory retained by the tree (settled
    * heap after the build minus settled heap before it), and #nodes. Each
    * tree is built once untimed first: that build derives the network's lazy
    * indexes (in local mode the tasks' broadcast value is this very network
    * object) and warms the JIT, so neither counts as the tree's memory or time.
    */
  def table3(spark: SparkSession, datasets: Seq[DatasetSpec] = benchDatasets): Seq[Table3Row] =
    datasets.map { d =>
      val net = d.gen().compact
      TCTree.build(spark, net)
      val before = settledHeap()
      val t0 = System.nanoTime()
      val tree = TCTree.build(spark, net)
      val ms = (System.nanoTime() - t0) / 1000000
      val after = settledHeap()
      java.lang.ref.Reference.reachabilityFence(tree)
      Table3Row(d.name, ms, (after - before) / 1e6, tree.nNodes, tree.maxDepth)
    }

  def formatTable3(rows: Seq[Table3Row]): String = {
    val header = f"${"dataset"}%-8s ${"IndexTime(ms)"}%14s ${"Memory(MB)"}%11s ${"#Nodes"}%10s ${"depth"}%6s"
    (header +: rows.map { r =>
      f"${r.name}%-8s ${r.indexingTimeMs}%14d ${r.memoryMB}%11.1f ${r.nNodes}%10d ${r.maxDepth}%6d"
    }).mkString("\n")
  }

  // ------------------------------------------------------- Figure 3 (α, ε)

  final case class MinerRow(method: String, alpha: Double, eps: Double,
                            timeMs: Long, np: Long, nv: Long, ne: Long,
                            mptdCalls: Long, pruned: Long)

  private def minerRow(method: String, alpha: Double, eps: Double, r: MiningResult): MinerRow =
    MinerRow(method, alpha, eps, r.stats.timeMs, r.np, r.nv, r.ne,
             r.stats.mptdCalls, r.stats.prunedByIntersection)

  /** One Figure 3 input: a BFS sample of a dataset and the α × ε grid it is swept over. */
  final case class Fig3Sample(name: String, gen: () => GenNet, alphas: Seq[Double], epss: Seq[Double])

  /** The Figure 3 inputs (the paper samples 10k/10k/5k edges; these scale with the datasets). */
  def fig3Samples: Seq[Fig3Sample] = Seq(
    Fig3Sample("BK", () => NetGen.bfsSample(NetGen.bkLike(), 2000),
               Seq(0.0, 0.1, 0.3, 0.5, 1.0, 2.0), Seq(0.1, 0.2, 0.3)),
    Fig3Sample("AMINER", () => NetGen.bfsSample(NetGen.aminerLike(), 1000),
               Seq(0.0, 0.3, 1.0), Seq(0.1, 0.3)),
  )

  /** Figure 3 sweep: TCS(ε) / TCFA / TCFI across cohesion thresholds α on
    * one (typically BFS-sampled) database network, uncapped. Every method
    * runs once untimed at the first α before the timed rows, so no row's
    * time includes JIT warm-up.
    */
  def fig3(spark: SparkSession, net: GenNet, alphas: Seq[Double], epss: Seq[Double]): Seq[MinerRow] = {
    val c = net.compact
    def rowsAt(a: Double): Seq[MinerRow] =
      epss.map(e => minerRow(s"TCS(eps=$e)", a, e, TCS.run(spark, c, a, e))) ++
        Seq(
          minerRow("TCFA", a, Double.NaN, TCFA.run(spark, c, a)),
          minerRow("TCFI", a, Double.NaN, TCFI.run(spark, c, a)),
        )
    alphas.headOption.foreach(rowsAt)
    alphas.flatMap(rowsAt)
  }

  /** `fig3` on one sample, printed under its heading: what `jobs/Main fig3` and the bench print. */
  def printFig3(spark: SparkSession, s: Fig3Sample): Seq[MinerRow] = {
    val net = s.gen()
    val rows = fig3(spark, net, s.alphas, s.epss)
    println(s"== Figure 3 on ${s.name} (sampled ${net.nEdges} edges) ==")
    println(formatMinerRows(rows))
    rows
  }

  def formatMinerRows(rows: Seq[MinerRow]): String = {
    val header = f"${"method"}%-14s ${"alpha"}%6s ${"time(ms)"}%9s ${"NP"}%8s ${"NV"}%9s ${"NE"}%9s ${"MPTD"}%8s ${"pruned"}%8s"
    (header +: rows.map { r =>
      f"${r.method}%-14s ${r.alpha}%6.2f ${r.timeMs}%9d ${r.np}%8d ${r.nv}%9d ${r.ne}%9d ${r.mptdCalls}%8d ${r.pruned}%8d"
    }).mkString("\n")
  }

  // ------------------------------------------------- Figure 4 (scalability)

  final case class Fig4Row(method: String, mEdges: Int, timeMs: Long,
                           np: Long, nvOverNp: Double, neOverNp: Double)

  /** One Figure 4 input: a dataset, the BFS sample sizes it is run at, and
    * the largest sizes at which TCS and TCFA still run.
    */
  final case class Fig4Series(name: String, base: () => GenNet, sizes: Seq[Int], tcsCutoff: Int, tcfaCutoff: Int)

  /** The Figure 4 inputs. */
  def fig4Series: Seq[Fig4Series] = Seq(
    Fig4Series("BK", () => NetGen.bkLike(), Seq(500, 1000, 2000, 4000), tcsCutoff = 2000, tcfaCutoff = 4000),
    Fig4Series("AMINER", () => NetGen.aminerLike(), Seq(500, 1000, 2000), tcsCutoff = 1000, tcfaCutoff = 2000),
  )

  /** Figure 4: runtime and truss-size metrics vs. BFS-sampled network size,
    * at the worst case α = 0, uncapped, with TCS at ε = 0.1. TCS/TCFA are
    * skipped above their cutoffs (paper: "we stop reporting when they cost
    * more than one day"). Every method runs once untimed on the smallest
    * sample before the timed rows, so no row's time includes JIT warm-up.
    */
  def fig4(spark: SparkSession, base: GenNet, sizes: Seq[Int], tcsCutoff: Int, tcfaCutoff: Int): Seq[Fig4Row] = {
    val eps = 0.1
    def row(method: String, m: Int, r: MiningResult): Fig4Row =
      Fig4Row(method, m, r.stats.timeMs, r.np,
              if (r.np == 0) 0.0 else r.nv.toDouble / r.np,
              if (r.np == 0) 0.0 else r.ne.toDouble / r.np)
    def rowsAt(m: Int): Seq[Fig4Row] = {
      val net = NetGen.bfsSample(base, m).compact
      val out = scala.collection.mutable.ArrayBuffer.empty[Fig4Row]
      if (m <= tcsCutoff) out += row(s"TCS(eps=$eps)", m, TCS.run(spark, net, 0.0, eps))
      if (m <= tcfaCutoff) out += row("TCFA", m, TCFA.run(spark, net, 0.0))
      out += row("TCFI", m, TCFI.run(spark, net, 0.0))
      out.toSeq
    }
    if (sizes.nonEmpty) rowsAt(sizes.min)
    sizes.flatMap(rowsAt)
  }

  /** `fig4` on one series, printed under its heading: what `jobs/Main fig4` and the bench print. */
  def printFig4(spark: SparkSession, s: Fig4Series): Seq[Fig4Row] = {
    val rows = fig4(spark, s.base(), s.sizes, s.tcsCutoff, s.tcfaCutoff)
    println(s"== Figure 4 on ${s.name} ==")
    println(formatFig4(rows))
    rows
  }

  def formatFig4(rows: Seq[Fig4Row]): String = {
    val header = f"${"method"}%-14s ${"edges"}%8s ${"time(ms)"}%9s ${"NP"}%8s ${"NV/NP"}%8s ${"NE/NP"}%8s"
    (header +: rows.map { r =>
      f"${r.method}%-14s ${r.mEdges}%8d ${r.timeMs}%9d ${r.np}%8d ${r.nvOverNp}%8.2f ${r.neOverNp}%8.2f"
    }).mkString("\n")
  }

  // ----------------------------------------------- Figure 5 (query answering)

  final case class QbaRow(alphaQ: Double, avgQueryMicros: Double, retrievedNodes: Int)
  final case class QbpRow(patternLen: Int, avgQueryMicros: Double, avgRetrievedNodes: Double)

  /** The Figure 5 inputs: the TC-Trees of BK and AMINER. */
  def fig5Datasets: Seq[DatasetSpec] = benchDatasets.filter(d => d.name == "BK" || d.name == "AMINER")

  /** Figure 5(a)-(d): Query-by-Alpha with q = S, α_q ascending by 0.1 until
    * the answer is empty. Query time is averaged over 20 runs.
    */
  def fig5Qba(tree: TCTree, allItems: Set[Int]): Seq[QbaRow] = {
    val reps = 20
    val out = Vector.newBuilder[QbaRow]
    var alphaQ = 0.0
    var rn = -1
    while (rn != 0) {
      val t0 = System.nanoTime()
      var res: repro.index.TCQueryResult = null
      var i = 0
      while (i < reps) { res = tree.queryByAlpha(allItems, alphaQ); i += 1 }
      val micros = (System.nanoTime() - t0) / 1000.0 / reps
      rn = res.retrievedNodes
      out += QbaRow(alphaQ, micros, rn)
      alphaQ = math.rint((alphaQ + 0.1) * 10) / 10
    }
    out.result()
  }

  /** Figure 5(e)-(h): Query-by-Pattern with α_q = 0, query patterns sampled
    * from each tree layer (up to 200 per layer, seed 31), each query run 3
    * times.
    */
  def fig5Qbp(tree: TCTree): Seq[QbpRow] = {
    val samplesPerLayer = 200
    val reps = 3
    val rnd = new Random(31)
    (1 to tree.maxDepth).flatMap { len =>
      val layer = tree.nodesAtDepth(len)
      if (layer.isEmpty) None
      else {
        val qs = Vector.fill(math.min(samplesPerLayer, layer.length * 2))(
          layer(rnd.nextInt(layer.length)).pattern)
        val t0 = System.nanoTime()
        var rnSum = 0L
        for (_ <- 0 until reps; q <- qs) rnSum += tree.queryByPattern(q).retrievedNodes
        val micros = (System.nanoTime() - t0) / 1000.0 / (reps * qs.length)
        Some(QbpRow(len, micros, rnSum.toDouble / (reps * qs.length)))
      }
    }
  }

  /** QBA and QBP on one dataset's TC-Tree, printed under its heading: what
    * `jobs/Main fig5` and the bench print.
    */
  def printFig5(spark: SparkSession, d: DatasetSpec): (TCTree, Seq[QbaRow], Seq[QbpRow]) = {
    val net = d.gen().compact
    val tree = TCTree.build(spark, net)
    println(s"== Figure 5 on ${d.name}: ${tree.nNodes} TC-Tree nodes, alpha* = ${tree.alphaStar} ==")
    val qba = fig5Qba(tree, net.items.toSet)
    println("-- QBA --")
    println(formatQba(qba))
    val qbp = fig5Qbp(tree)
    println("-- QBP --")
    println(formatQbp(qbp))
    (tree, qba, qbp)
  }

  def formatQba(rows: Seq[QbaRow]): String =
    (f"${"alphaQ"}%7s ${"time(us)"}%10s ${"RN"}%8s" +:
      rows.map(r => f"${r.alphaQ}%7.1f ${r.avgQueryMicros}%10.1f ${r.retrievedNodes}%8d")).mkString("\n")

  def formatQbp(rows: Seq[QbpRow]): String =
    (f"${"len"}%4s ${"time(us)"}%10s ${"avgRN"}%8s" +:
      rows.map(r => f"${r.patternLen}%4d ${r.avgQueryMicros}%10.1f ${r.avgRetrievedNodes}%8.1f")).mkString("\n")

  // --------------------------------------------- Table 4 / Fig 6 case study

  final case class CaseCommunity(keywords: Vector[String], members: Vector[String],
                                 pattern: Vector[Int], size: Int)

  /** Case study on the AMINER-like network: mine with TCFI, extract theme
    * communities, and render the largest ones with keyword/author names
    * (paper Table 4 + Figure 6). Several nested sub-patterns share one
    * member set; we keep the longest (most specific) pattern per distinct
    * member set, as the paper's Table 4 lists distinct communities. Runs
    * at α = 0.3 and keeps the 10 largest communities of patterns with at
    * least 2 items. No length cap: the longest pattern is the one kept, so
    * a cap could silently replace it with a sub-pattern.
    */
  def caseStudy(spark: SparkSession, net: GenNet): Seq[CaseCommunity] = {
    val result = TCFI.run(spark, net.compact, 0.3)
    result.communities
      .filter(_._1.length >= 2)
      .groupBy(_._2)
      .map { case (mem, group) =>
        val p = group.map(_._1).maxBy(q => (q.length, Pattern.key(q)))
        CaseCommunity(
          p.map(i => net.itemNames.getOrElse(i, s"item$i")),
          mem.toVector.sorted.map(v => net.vertexNames.getOrElse(v, s"v$v")),
          p, mem.size)
      }
      .toSeq
      .sortBy(c => (-c.size, c.keywords.mkString(",")))
      .take(10)
  }

  def formatCaseStudy(cs: Seq[CaseCommunity]): String =
    cs.zipWithIndex.map { case (c, i) =>
      s"p${i + 1}: {${c.keywords.mkString(", ")}}  -> community of ${c.size}: " +
        c.members.take(12).mkString(", ") + (if (c.size > 12) ", ..." else "")
    }.mkString("\n")
}
