package repro

import repro.netgen.{GenNet, NetGen}

import scala.util.Random

/** Shared fixtures: hand-built and randomized small database networks. */
object TestNets {

  /** Triangle v0-v1-v2, every vertex database = {{0},{0,1}} (f(0)=1, f(0,1)=0.5). */
  def triangleNet: GenNet = GenNet(
    n = 3,
    edges = Vector((0, 1), (0, 2), (1, 2)),
    txs = Vector.fill(3)(Vector(Vector(0), Vector(0, 1))),
  )

  /** The running example of the paper's Figure 1, reconstructed concretely:
    * 9 vertices; a dense group {0,1,2,3,4} and a triangle {6,7,8} carry
    * pattern item 0; {1,2,4,5,6,8} carry item 1. Frequencies are set through
    * the vertex databases (10 transactions each).
    */
  def figure1Like: GenNet = {
    val edges = Vector(
      (0, 1), (0, 2), (0, 4), (1, 2), (1, 4), (2, 3), (2, 4), (3, 4), // group A (pattern p = {0})
      (4, 5), (2, 5), (5, 6), (2, 6), (4, 6),                         // bridge vertices carrying q = {1}
      (6, 7), (7, 8), (6, 8),                                         // group B
    )
    // freq of item 0 per vertex (tenths), then item 1.
    val f0 = Vector(6, 4, 3, 5, 7, 0, 2, 5, 4)
    val f1 = Vector(0, 4, 5, 0, 3, 6, 5, 0, 3)
    val txs = Vector.tabulate(9) { v =>
      Vector.tabulate(10) { t =>
        val has0 = t < f0(v)
        val has1 = t >= 10 - f1(v) // overlap possible; item freqs stay exact
        val items = (if (has0) Vector(0) else Vector.empty) ++
          (if (has1) Vector(1) else Vector.empty)
        if (items.isEmpty) Vector(2 + v % 3) else items
      }
    }
    GenNet(9, edges, txs)
  }

  /** K5 clique where every vertex database makes f(item 0) = 1. */
  def k5AllOnes: GenNet = GenNet(
    n = 5,
    edges = (for (i <- 0 until 5; j <- (i + 1) until 5) yield (i, j)).toVector,
    txs = Vector.fill(5)(Vector(Vector(0))),
  )

  /** Small planted check-in network used across miner tests. */
  def smallPlanted(seed: Long = 42): GenNet =
    NetGen.checkinLike(nVertices = 120, nGroups = 6, vocab = 30,
                       extraEdgesPerVertex = 1.5, pIntra = 0.85, seed = seed)

  /** Small AMINER-like network for index/case-study tests. */
  def smallAminer(seed: Long = 43): GenNet =
    NetGen.aminerLike(nAuthors = 150, nTopics = 8, vocab = 60, seed = seed)

  /** Random small database network for property tests. */
  def randomNet(rnd: Random, maxN: Int = 12, vocab: Int = 6): GenNet = {
    val n = 4 + rnd.nextInt(maxN - 3)
    val edges = (for {
      i <- 0 until n; j <- (i + 1) until n
      if rnd.nextDouble() < 0.45
    } yield (i, j)).toVector
    val txs = Vector.fill(n) {
      Vector.fill(1 + rnd.nextInt(5)) {
        val len = 1 + rnd.nextInt(4)
        Vector.fill(len)(rnd.nextInt(vocab)).distinct.sorted
      }
    }
    GenNet(n, edges, txs)
  }

  /** Random networks where about a quarter of the databases are empty and
    * about one transaction in six is empty.
    */
  def sparseNets(seed: Long, k: Int): Seq[GenNet] = {
    val rnd = new Random(seed)
    Seq.fill(k) {
      val g = randomNet(rnd)
      g.copy(txs = g.txs.map(db =>
        if (rnd.nextInt(4) == 0) Vector.empty else db.map(t => if (rnd.nextInt(6) == 0) Vector.empty else t)))
    }
  }

  /** Random frequency assignment in tenths, for pure-graph truss tests. */
  def randomFreqs(rnd: Random, n: Int): Int => Double = {
    val f = Array.fill(n)(rnd.nextInt(11) / 10.0)
    v => f(v)
  }


  /** Connected components by breadth-first search over an adjacency map,
    * largest first, ties by least vertex: the reference for the union-find
    * in `LocalTruss.components`. A self-loop makes its vertex a component.
    */
  def bfsComponents(edges: Iterable[(Int, Int)]): Vector[Set[Int]] = {
    val adj = edges.flatMap { case (u, v) => Seq(u -> v, v -> u) }
      .groupBy(_._1).view.mapValues(_.map(_._2).toSet).toMap
    var seen = Set.empty[Int]
    val out = Vector.newBuilder[Set[Int]]
    for (s <- adj.keys.toVector.sorted if !seen(s)) {
      var comp = Set(s)
      var frontier = List(s)
      while (frontier.nonEmpty) {
        val next = frontier.flatMap(adj).filterNot(comp)
        comp ++= next
        frontier = next.distinct
      }
      seen ++= comp
      out += comp
    }
    out.result().sortBy(c => (-c.size, c.min))
  }
}
