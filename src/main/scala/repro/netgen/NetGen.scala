package repro.netgen

import repro.core.CompactNetwork

import scala.collection.mutable
import scala.util.Random

/** A generated database network held driver-side: vertex count, canonical
  * edge list, per-vertex transaction databases, and (where the generator
  * plants them) ground-truth (pattern, member-set) theme communities plus
  * readable item/vertex names for the case study.
  */
final case class GenNet(
    n: Int,
    edges: Vector[(Int, Int)],
    txs: IndexedSeq[Vector[Vector[Int]]],
    groundTruth: Vector[(Vector[Int], Set[Int])] = Vector.empty,
    itemNames: Map[Int, String] = Map.empty,
    vertexNames: Map[Int, String] = Map.empty,
) {
  def nEdges: Int = edges.length

  /** The network the algorithms run on: adjacency without duplicates or
    * self-loops and items distinct within each transaction.
    */
  def compact: CompactNetwork = {
    val adj = Array.fill(n)(mutable.ArrayBuffer.empty[Int])
    for ((u, v) <- edges if u != v) { adj(u) += v; adj(v) += u }
    CompactNetwork(
      adj.map(_.toArray.distinct.sorted),
      txs.map(_.map(_.distinct.sorted.toArray).toArray).toArray,
    )
  }
}

/** Synthetic stand-ins for the paper's four datasets (Section 7 / Table 2).
  * The raw Brightkite/Gowalla/AMINER dumps are unavailable offline and the
  * paper's scales exceed this container, so each generator reproduces the
  * *mechanism* that makes theme communities exist in the original data at
  * ~100-500x smaller scale (see DESIGN.md §3). All generators are
  * deterministic in their (size, seed) arguments.
  */
object NetGen {

  private def canonical(es: Iterable[(Int, Int)]): Vector[(Int, Int)] =
    es.iterator
      .filter { case (u, v) => u != v }
      .map { case (u, v) => if (u < v) (u, v) else (v, u) }
      .toVector.distinct.sorted

  private def sampleDistinct(rnd: Random, bound: Int, k: Int): Vector[Int] = {
    val s = mutable.LinkedHashSet.empty[Int]
    while (s.size < math.min(k, bound)) s += rnd.nextInt(bound)
    s.toVector
  }

  /** Check-in style network (Brightkite/Gowalla mechanism): planted friend
    * groups with favourite location sets. Group members are densely wired
    * (triangles) and their transactions (check-in periods) frequently
    * contain the group's favourite locations; the rest is noise.
    */
  def checkinLike(
      nVertices: Int,
      nGroups: Int,
      vocab: Int,
      extraEdgesPerVertex: Double,
      pIntra: Double,
      seed: Long,
  ): GenNet = {
    require(nVertices > 0, s"nVertices must be > 0, got $nVertices")
    require(nGroups > 0, s"nGroups must be > 0, got $nGroups")
    require(vocab > 0, s"vocab must be > 0, got $vocab")
    require(pIntra >= 0.0 && pIntra <= 1.0, s"pIntra must be in [0, 1], got $pIntra")
    require(extraEdgesPerVertex >= 0.0, s"extraEdgesPerVertex must be >= 0, got $extraEdgesPerVertex")
    val rnd = new Random(seed)
    final case class Group(members: Vector[Int], favourites: Vector[Int])
    val groups = Vector.fill(nGroups) {
      val size = 5 + rnd.nextInt(6)
      Group(sampleDistinct(rnd, nVertices, size),
            sampleDistinct(rnd, vocab, 2 + rnd.nextInt(3)).sorted)
    }
    val es = mutable.LinkedHashSet.empty[(Int, Int)]
    for (g <- groups; i <- g.members.indices; j <- (i + 1) until g.members.size
         if rnd.nextDouble() < pIntra)
      es += ((g.members(i) min g.members(j), g.members(i) max g.members(j)))
    val nExtra = (nVertices * extraEdgesPerVertex).toInt
    // Extra edges are drawn until that many new ones exist: fail instead of
    // looping forever when the vertex pairs cannot hold them.
    require(nExtra <= nVertices.toLong * (nVertices - 1) / 2 - es.size,
            s"$nExtra extra edges do not fit among $nVertices vertices")
    var added = 0
    while (added < nExtra) {
      val u = rnd.nextInt(nVertices); val v = rnd.nextInt(nVertices)
      if (u != v && es.add((u min v, u max v))) added += 1
    }
    val groupsOf = Array.fill(nVertices)(mutable.ArrayBuffer.empty[Int])
    groups.zipWithIndex.foreach { case (g, gi) => g.members.foreach(groupsOf(_) += gi) }
    val txs = Vector.tabulate(nVertices) { v =>
      val nTx = 12 + rnd.nextInt(9)
      Vector.fill(nTx) {
        val own = groupsOf(v)
        val t =
          if (own.nonEmpty && rnd.nextDouble() < 0.7) {
            val g = groups(own(rnd.nextInt(own.size)))
            g.favourites.filter(_ => rnd.nextDouble() < 0.9) ++
              sampleDistinct(rnd, vocab, 1 + rnd.nextInt(3))
          } else sampleDistinct(rnd, vocab, 2 + rnd.nextInt(4))
        if (t.isEmpty) Vector(rnd.nextInt(vocab)) else t.distinct.sorted
      }
    }
    GenNet(
      nVertices, canonical(es), txs,
      groundTruth = groups.map(g => (g.favourites, g.members.toSet)),
      itemNames = (0 until vocab).map(i => i -> s"loc$i").toMap,
      vertexNames = (0 until nVertices).map(v => v -> s"user$v").toMap,
    )
  }

  /** Brightkite-like: sparser, smaller vocabulary (paper: 51k vertices /
    * 210k edges / 1.8k unique items; here ~1/34 of vertices).
    */
  def bkLike(nVertices: Int = 1500, seed: Long = 7): GenNet =
    checkinLike(nVertices, nGroups = math.max(4, nVertices / 25), vocab = math.max(20, nVertices / 8),
                extraEdgesPerVertex = 3.3, pIntra = 0.6, seed = seed)

  /** Gowalla-like: denser friendship graph, larger vocabulary (paper: 110k
    * vertices / 950k edges, 8.6 edges/vertex).
    */
  def gwLike(nVertices: Int = 2500, seed: Long = 11): GenNet =
    checkinLike(nVertices, nGroups = math.max(4, nVertices / 22), vocab = math.max(30, nVertices / 8),
                extraEdgesPerVertex = 7.5, pIntra = 0.7, seed = seed)

  /** AMINER-like co-author network: research groups with topic keyword sets
    * publish papers; a paper's authors form a clique and each author gains
    * one transaction = the paper's keywords (topic keywords + noise).
    * Occasional cross-group papers create the interdisciplinary overlaps of
    * the paper's Figure 6(e)-(f). Ground truth = (topic keywords, group).
    */
  def aminerLike(nAuthors: Int = 2500, nTopics: Int = 70, vocab: Int = 400,
                 seed: Long = 13): GenNet = {
    require(nAuthors > 0, s"nAuthors must be > 0, got $nAuthors")
    require(nTopics > 0, s"nTopics must be > 0, got $nTopics")
    require(vocab > 0, s"vocab must be > 0, got $vocab")
    val rnd = new Random(seed)
    final case class Topic(keywords: Vector[Int], group: Vector[Int])
    val topics = Vector.fill(nTopics) {
      Topic(sampleDistinct(rnd, vocab, 3 + rnd.nextInt(3)).sorted,
            sampleDistinct(rnd, nAuthors, 8 + rnd.nextInt(13)))
    }
    val es = mutable.LinkedHashSet.empty[(Int, Int)]
    val dbs = Array.fill(nAuthors)(mutable.ArrayBuffer.empty[Vector[Int]])
    for (t <- topics) {
      val nPapers = t.group.size * 3
      for (_ <- 0 until nPapers) {
        var authors = sampleDistinct(rnd, t.group.size, 2 + rnd.nextInt(3)).map(t.group)
        if (rnd.nextDouble() < 0.08) {
          val other = topics(rnd.nextInt(nTopics))
          authors = (authors :+ other.group(rnd.nextInt(other.group.size))).distinct
        }
        for (i <- authors.indices; j <- (i + 1) until authors.size)
          es += ((authors(i) min authors(j), authors(i) max authors(j)))
        val kw = (t.keywords.filter(_ => rnd.nextDouble() < 0.85) ++
          sampleDistinct(rnd, vocab, 1 + rnd.nextInt(3))).distinct.sorted
        val tx = if (kw.isEmpty) t.keywords else kw
        authors.foreach(a => dbs(a) += tx)
      }
    }
    // Solo noise papers so every author has a database.
    for (a <- 0 until nAuthors if dbs(a).isEmpty || rnd.nextDouble() < 0.3)
      dbs(a) += sampleDistinct(rnd, vocab, 2 + rnd.nextInt(3)).sorted
    GenNet(
      nAuthors, canonical(es), dbs.map(_.toVector).toVector,
      groundTruth = topics.map(t => (t.keywords, t.group.toSet)),
      itemNames = (0 until vocab).map(i => i -> s"kw$i").toMap,
      vertexNames = (0 until nAuthors).map(v => v -> s"author$v").toMap,
    )
  }

  /** SYN recipe of Section 7, scaled down: preferential-attachment graph
    * with triad closure (skewed degrees, triangles), seed vertices with
    * random itemset databases, BFS propagation sampling neighbour
    * transactions with 10% item mutation, and the paper's degree-driven
    * sizes: |d_v| = ⌈e^{0.1 d(v)}⌉ transactions of length ⌈e^{0.13 d(v)}⌉
    * (capped for the scaled-down container).
    */
  def synLike(nVertices: Int = 4000, mAttach: Int = 5, nSeeds: Int = 50,
              vocab: Int = 300, seed: Long = 17): GenNet = {
    require(nVertices > 0, s"nVertices must be > 0, got $nVertices")
    require(mAttach > 0, s"mAttach must be > 0, got $mAttach")
    require(nSeeds > 0, s"nSeeds must be > 0, got $nSeeds")
    require(vocab > 0, s"vocab must be > 0, got $vocab")
    val rnd = new Random(seed)
    val es = mutable.LinkedHashSet.empty[(Int, Int)]
    val endpoints = mutable.ArrayBuffer.empty[Int] // degree-weighted sampling pool
    val adj = Array.fill(nVertices)(mutable.ArrayBuffer.empty[Int])
    def addEdge(u: Int, v: Int): Boolean = {
      if (u == v) return false
      if (es.add((u min v, u max v))) {
        endpoints += u; endpoints += v
        adj(u) += v; adj(v) += u
        true
      } else false
    }
    val core = math.min(nVertices, mAttach + 1)
    for (i <- 0 until core; j <- (i + 1) until core) addEdge(i, j)
    for (v <- core until nVertices) {
      var links = 0; var tries = 0
      while (links < mAttach && tries < mAttach * 20) {
        tries += 1
        val target =
          if (adj(v).nonEmpty && rnd.nextDouble() < 0.5) {
            val nb = adj(v)(rnd.nextInt(adj(v).size)) // triad closure
            if (adj(nb).nonEmpty) adj(nb)(rnd.nextInt(adj(nb).size)) else endpoints(rnd.nextInt(endpoints.size))
          } else endpoints(rnd.nextInt(endpoints.size))
        if (target != v && addEdge(v, target)) links += 1
      }
    }
    val deg = adj.map(_.distinct.size)
    def nTxOf(v: Int) = math.min(25, math.ceil(math.exp(0.10 * deg(v))).toInt)
    def txLenOf(v: Int) = math.min(8, math.max(1, math.ceil(math.exp(0.13 * deg(v))).toInt))
    val dbs = Array.fill[Vector[Vector[Int]]](nVertices)(null)
    val seeds = sampleDistinct(rnd, nVertices, math.min(nSeeds, nVertices))
    def randomTx(len: Int) = sampleDistinct(rnd, vocab, len).sorted
    for (s <- seeds) dbs(s) = Vector.fill(nTxOf(s))(randomTx(txLenOf(s)))
    // BFS propagation from the seeds; unreached components get seeded anew.
    val queue = mutable.Queue.empty[Int]
    seeds.foreach(queue.enqueue)
    val enqueued = mutable.Set(seeds: _*)
    var cursor = 0
    while (enqueued.size < nVertices) {
      while (queue.nonEmpty) {
        val u = queue.dequeue()
        for (v <- adj(u).distinct if !enqueued.contains(v)) {
          enqueued += v; queue.enqueue(v)
          val assigned = adj(v).distinct.filter(dbs(_) != null)
          dbs(v) = Vector.fill(nTxOf(v)) {
            val targetLen = txLenOf(v)
            if (assigned.isEmpty) randomTx(targetLen)
            else {
              val src = dbs(assigned(rnd.nextInt(assigned.size)))
              val base = src(rnd.nextInt(src.size))
                .map(it => if (rnd.nextDouble() < 0.10) rnd.nextInt(vocab) else it)
              val padded =
                if (base.size >= targetLen) base.take(targetLen)
                else base ++ sampleDistinct(rnd, vocab, targetLen - base.size)
              padded.distinct.sorted
            }
          }
        }
      }
      while (cursor < nVertices && enqueued.contains(cursor)) cursor += 1
      if (cursor < nVertices) {
        dbs(cursor) = Vector.fill(nTxOf(cursor))(randomTx(txLenOf(cursor)))
        enqueued += cursor; queue.enqueue(cursor)
      }
    }
    GenNet(nVertices, canonical(es), dbs.toVector)
  }

  /** Breadth-first-search edge sampling (Section 7.1): collect edges in BFS
    * order from a random seed until `mEdges` are taken (restarting from a
    * fresh unvisited seed if a component is exhausted), then return the
    * sub-database-network induced on the touched vertices, reindexed to
    * 0..n'−1 with databases and ground truth carried over.
    */
  def bfsSample(net: GenNet, mEdges: Int, seed: Long = 23): GenNet = {
    require(mEdges >= 0, s"mEdges must be >= 0, got $mEdges")
    if (mEdges >= net.nEdges) return net
    val rnd = new Random(seed)
    val adj = Array.fill(net.n)(mutable.ArrayBuffer.empty[Int])
    net.edges.foreach { case (u, v) => adj(u) += v; adj(v) += u }
    val taken = mutable.LinkedHashSet.empty[(Int, Int)]
    val visited = mutable.Set.empty[Int]
    val queue = mutable.Queue.empty[Int]
    // Each round takes the edges of one vertex, and every vertex is queued
    // once, so the walk ends with every edge taken or `mEdges` of them.
    while (taken.size < mEdges && (queue.nonEmpty || visited.size < net.n)) {
      if (queue.isEmpty) {
        var s = rnd.nextInt(net.n)
        while (visited.contains(s)) s = (s + 1) % net.n
        visited += s; queue.enqueue(s)
      }
      val u = queue.dequeue()
      val it = adj(u).sorted.iterator
      while (it.hasNext && taken.size < mEdges) {
        val v = it.next()
        taken += ((u min v, u max v))
        if (!visited.contains(v)) { visited += v; queue.enqueue(v) }
      }
    }
    val keepVerts = taken.iterator.flatMap(e => Iterator(e._1, e._2)).toVector.distinct.sorted
    val remap = keepVerts.zipWithIndex.toMap
    GenNet(
      keepVerts.length,
      canonical(taken.iterator.map { case (u, v) => (remap(u), remap(v)) }.toVector),
      keepVerts.map(net.txs),
      groundTruth = net.groundTruth
        .map { case (p, mem) => (p, mem.collect { case m if remap.contains(m) => remap(m) }) }
        .filter(_._2.size >= 3),
      itemNames = net.itemNames,
      vertexNames = keepVerts.zipWithIndex
        .map { case (old, nw) => nw -> net.vertexNames.getOrElse(old, s"v$old") }.toMap,
    )
  }
}
