package repro.perfbench

import repro.core._
import repro.index.{TCNode, TCTree}

import scala.collection.mutable

/** Spark-free, single-threaded replays of TCFI (Section 5.3), the TC-Tree
  * build (Algorithm 4) and the TC-Tree query (Algorithm 5), written against
  * the program's public kernels. They are the Spark-free baseline every
  * Spark path is timed against, and they record a span around every kernel
  * call plus the counters of each layer.
  */
final class Serial(net: CompactNetwork, log: SpanLog) {
  private var freqCalls = 0L
  private var freqNs = 0L

  /** Memoising f_v(p), as the miners use, counting the calls that reach
    * CompactNetwork.freq.
    */
  private def freqFn(p: Vector[Int]): Int => Double = {
    val cache = new java.util.HashMap[Integer, java.lang.Double]()
    v => {
      val hit = cache.get(v)
      if (hit != null) hit.doubleValue()
      else {
        val t0 = System.nanoTime()
        val f = net.freq(v, p)
        freqNs += System.nanoTime() - t0
        freqCalls += 1
        cache.put(v, f)
        f
      }
    }
  }

  /** Publishes the frequency counters at the end of a replay. */
  private def flush(): Unit = {
    log.add("model.freq_calls", freqCalls.toDouble)
    log.add("model.freq_s", freqNs / 1e9)
    freqCalls = 0L; freqNs = 0L
  }

  private def induce(p: Vector[Int], within: Iterable[(Int, Int)]): (Vector[(Int, Int)], Int => Double) = {
    val f = freqFn(p)
    (log.span("localtruss.induce")(LocalTruss.themeInduce(within, f)), f)
  }

  private def mptd(p: Vector[Int], within: Iterable[(Int, Int)], alpha: Double): Truss = {
    val (g, f) = induce(p, within)
    val t = log.span("localtruss.mptd")(LocalTruss.mptd(g, f, alpha))
    log.add("localtruss.mptd_calls", 1)
    log.add("localtruss.mptd_edges_in", g.length)
    log.max("localtruss.mptd_edges_in_max", g.length)
    log.add("localtruss.mptd_edges_out", t.nEdges)
    if (!t.isEmpty) log.add("localtruss.mptd_nonempty", 1)
    t
  }

  private def decompose(p: Vector[Int], within: Iterable[(Int, Int)]): Decomposition = {
    val (g, f) = induce(p, within)
    val d = log.span("localtruss.decompose")(LocalTruss.decompose(g, f))
    log.add("localtruss.decompose_calls", 1)
    log.add("localtruss.decompose_steps", d.nodes.length)
    log.add("localtruss.decompose_edges_in", g.length)
    log.max("localtruss.decompose_edges_in_max", g.length)
    d
  }

  /** TCFI: the level-wise loop of `TCFI.run` with a plain loop in place of
    * each Spark job. Its counters must equal the Spark run's.
    */
  def tcfi(alpha: Double, maxLen: Int): MiningResult = log.span("miners.serial") {
    val t0 = System.nanoTime()
    val items = net.items
    var candidates = items.length.toLong
    var calls = items.length.toLong
    var pruned = 0L
    var levels = 1
    var level: Map[Vector[Int], Truss] = log.span("miners.level") {
      items.iterator.map(s => Vector(s) -> mptd(Vector(s), net.edgeList, alpha)).filter(!_._2.isEmpty).toMap
    }
    var all = level
    var k = 2
    while (level.nonEmpty && k <= maxLen) {
      levels += 1
      val parents = level
      level = log.span("miners.level") {
        val cands = log.span("pattern.join")(Pattern.aprioriJoin(parents.keys.toSeq))
        log.add("pattern.join_out", cands.length)
        candidates += cands.length
        val next = Map.newBuilder[Vector[Int], Truss]
        for ((p, (pa, pb)) <- cands) {
          val ta = parents(pa); val tb = parents(pb)
          val within = log.span("localtruss.intersect")(ta.intersectEdges(tb))
          log.add("localtruss.intersect_calls", 1)
          log.add("localtruss.intersect_edges_in", ta.nEdges + tb.nEdges)
          if (within.isEmpty) { pruned += 1; log.add("localtruss.intersect_empty", 1) }
          else {
            calls += 1
            val t = mptd(p, within, alpha)
            if (!t.isEmpty) next += p -> t
          }
        }
        next.result()
      }
      all = all ++ level
      k += 1
    }
    log.add("miners.levels", levels)
    flush()
    MiningResult(all, MinerStats(calls, candidates, pruned, (System.nanoTime() - t0) / 1000000))
  }

  /** Algorithm 4: the breadth-first sibling-pair loop of `TCTree.build`
    * with a plain loop in place of each Spark job.
    */
  def tcTree(maxDepth: Int): TCTree = log.span("tctree.serial") {
    val root = new TCNode(-1, Vector.empty, Decomposition.empty)
    log.span("tctree.level") {
      for (s <- net.items.sorted) {
        val d = decompose(Vector(s), net.edgeList)
        if (!d.isEmpty) root.children += new TCNode(s, Vector(s), d)
      }
    }
    var parentLevel = Vector(root)
    var depth = 1
    while (parentLevel.nonEmpty && depth < maxDepth) {
      log.span("tctree.level") {
        for (p <- parentLevel if p.children.nonEmpty) {
          val sib = p.children.sortBy(_.item).toVector
          val (trusses, keys) = log.span("tctree.intersect") {
            val ts = sib.map(_.trussAt(0.0))
            (ts, ts.map(_.iterator.map(e => LocalTruss.ekey(e._1, e._2)).toSet))
          }
          for (i <- sib.indices; j <- (i + 1) until sib.length) {
            val inter = log.span("tctree.intersect") {
              trusses(i).filter(e => keys(j).contains(LocalTruss.ekey(e._1, e._2)))
            }
            log.add("tctree.sibling_pairs", 1)
            if (inter.isEmpty) log.add("tctree.sibling_empty", 1)
            else {
              val pattern = sib(i).pattern :+ sib(j).item
              val d = decompose(pattern, inter)
              if (!d.isEmpty) sib(i).children += new TCNode(sib(j).item, pattern, d)
            }
          }
        }
      }
      parentLevel = parentLevel.flatMap(_.children)
      depth += 1
    }
    flush()
    new TCTree(root)
  }
}

object Serial {

  /** Algorithm 5 over a built tree, counting nodes visited (children
    * examined), truss reconstructions and nodes retrieved.
    */
  def query(tree: TCTree, q: Set[Int], alpha: Double, log: SpanLog): Vector[(Vector[Int], Vector[(Int, Int)])] =
    log.span("tctree.query") {
      val out = Vector.newBuilder[(Vector[Int], Vector[(Int, Int)])]
      val queue = mutable.Queue(tree.root)
      while (queue.nonEmpty) {
        val nf = queue.dequeue()
        for (nc <- nf.children) {
          log.add("tctree.visited", 1)
          if (q.contains(nc.item)) {
            log.add("localtruss.trussat_calls", 1)
            val truss = log.span("localtruss.trussat")(nc.decomp.trussAt(alpha))
            if (truss.nonEmpty) {
              log.add("tctree.retrieved", 1)
              out += ((nc.pattern, truss))
              queue.enqueue(nc)
            }
          }
        }
      }
      out.result()
    }
}
