package repro.index

import org.apache.spark.sql.SparkSession
import repro.core._

import scala.collection.mutable

/** One TC-Tree node: the item appended to the parent's pattern, the full
  * pattern it represents, and the decomposed maximal pattern truss L_p
  * (Section 6.1). Nodes with L_p = ∅ are never materialised (Section 6.2).
  */
final class TCNode(val item: Int, val pattern: Vector[Int], val decomp: Decomposition) {
  val children: mutable.ArrayBuffer[TCNode] = mutable.ArrayBuffer.empty

  /** C*_p(α) edges via Equation 1. */
  def trussAt(alpha: Double): Vector[(Int, Int)] = decomp.trussAt(alpha)
}

/** Result of a TC-Tree query: the retrieved maximal pattern trusses, keyed by
  * pattern. `retrievedNodes` is the paper's RN metric (Figure 5).
  */
final case class TCQueryResult(results: Vector[(Vector[Int], Vector[(Int, Int)])]) {
  def retrievedNodes: Int = results.length

  /** Theme communities: maximal connected subgraphs of each retrieved truss. */
  def communities: Seq[(Vector[Int], Set[Int])] =
    results.flatMap { case (p, es) => LocalTruss.connectedComponents(es).map(c => (p, c)) }
}

/** The Theme Community Tree (Section 6.2): a set-enumeration tree over the
  * item universe where each kept node stores the decomposition of its
  * pattern's maximal pattern truss at α = 0. Supports query answering for
  * any (q, α_q) without recomputation (Algorithm 5).
  */
final class TCTree(val root: TCNode) {

  /** All non-root nodes in breadth-first order. */
  def nodes: Vector[TCNode] = {
    val out = Vector.newBuilder[TCNode]
    val q = mutable.Queue(root)
    while (q.nonEmpty) {
      val n = q.dequeue()
      n.children.foreach { c => out += c; q.enqueue(c) }
    }
    out.result()
  }

  /** #Nodes of Table 3 (root excluded; every node = one maximal pattern truss). */
  def nNodes: Int = nodes.length

  def maxDepth: Int = {
    def d(n: TCNode): Int = if (n.children.isEmpty) 0 else 1 + n.children.map(d).max
    d(root)
  }

  def nodesAtDepth(depth: Int): Vector[TCNode] = nodes.filter(_.pattern.length == depth)

  /** Largest nontrivial α over the whole tree: for α_q ≥ this, QBA returns ∅. */
  def alphaStar: Double = {
    val ns = nodes
    if (ns.isEmpty) 0.0 else ns.iterator.map(_.decomp.maxAlpha).max
  }

  /** Algorithm 5: answer query (q, α_q). Prunes a subtree as soon as the
    * child's item is outside q (its descendants cannot be sub-patterns of q)
    * or the child's truss at α_q is empty (Proposition 5.2 on descendants).
    */
  def query(q: Set[Int], alphaQ: Double): TCQueryResult = {
    require(alphaQ >= 0.0, s"alphaQ must be >= 0, got $alphaQ")
    val out = Vector.newBuilder[(Vector[Int], Vector[(Int, Int)])]
    val queue = mutable.Queue(root)
    while (queue.nonEmpty) {
      val nf = queue.dequeue()
      for (nc <- nf.children if q.contains(nc.item)) {
        val truss = nc.trussAt(alphaQ)
        if (truss.nonEmpty) {
          out += ((nc.pattern, truss))
          queue.enqueue(nc)
        }
      }
    }
    TCQueryResult(out.result())
  }

  /** Query-by-Alpha (Section 7.3): q = S. */
  def queryByAlpha(allItems: Set[Int], alphaQ: Double): TCQueryResult = query(allItems, alphaQ)

  /** Query-by-Pattern (Section 7.3): α_q = 0. */
  def queryByPattern(q: Vector[Int]): TCQueryResult = query(q.toSet, 0.0)
}

object TCTree {

  /** Algorithm 4: build the TC-Tree of a database network.
    *
    * Layer 1 (single items) is embarrassingly parallel — the paper uses
    * OpenMP threads; we distribute the items over Spark tasks with the
    * compact network broadcast. Every deeper node lies in the subtree of
    * one layer-1 node n_i and is built only from nodes of that subtree and
    * from n_i's later siblings: a sibling pair (n_f, n_b) with
    * s_{n_f} ≺ s_{n_b} yields child pattern p_f ∪ p_b whose truss is
    * computed *inside* C*_{p_f}(0) ∩ C*_{p_b}(0) (Proposition 5.3). So each
    * layer-1 subtree is an independent unit of work, as in Eclat's prefix
    * equivalence classes (Zaki, TKDE 2000): the α = 0 trusses of layer 1 are
    * broadcast as sorted edge-key arrays, and one Spark task per layer-1
    * node grows its whole subtree depth-first, intersecting siblings by a
    * linear merge and skipping empty intersections before decomposing. The
    * tasks return their nodes in pre-order; the driver only attaches them.
    *
    * @param maxDepth safety cap on pattern length (the enumeration
    *                 terminates on its own when decompositions are empty).
    */
  def build(spark: SparkSession, net: CompactNetwork, maxDepth: Int = Int.MaxValue): TCTree = {
    val sc = spark.sparkContext
    val bc = sc.broadcast(net)
    val root = new TCNode(-1, Vector.empty, Decomposition.empty)

    // Layer 1: every item of S in parallel (Algorithm 4 lines 2-5).
    val layer1 = sc
      .parallelize(net.items.toIndexedSeq, MinerOps.slices(spark, net.items.length))
      .flatMap { s =>
        val n = bc.value
        val d = computeDecomp(n, Vector(s), n.edgeList)
        if (d.isEmpty) None else Some(Row(1, s, d))
      }
      .collect()
      .sortBy(_.item)
      .map(r => new TCNode(r.item, Vector(r.item), r.decomp))
    root.children ++= layer1

    // Deeper layers (Algorithm 4 lines 6-12): one task per layer-1 subtree.
    if (maxDepth > 1 && layer1.length > 1) {
      val sibs = sc.broadcast(layer1.map(n => Sibling(n.item, edgeKeys(n.decomp))))
      val subtrees = sc
        .parallelize(layer1.indices, layer1.length)
        .map { i =>
          val ss = sibs.value
          val out = Array.newBuilder[Row]
          growSubtree(bc.value, Vector(ss(i).item), ss(i).keys, ss.drop(i + 1), maxDepth, out)
          out.result()
        }
        .collect()
      sibs.destroy()
      // Each subtree's rows are in pre-order, so a row's parent is the last
      // row one level up. Nodes are then created depth by depth: that is
      // the breadth-first order in which Algorithm 5 walks them, so the
      // tree is laid out in memory the way queries read it.
      val rows = mutable.ArrayBuffer.empty[(Row, Int)] // (row, index of its parent in `nodes`)
      for ((subtree, i) <- subtrees.iterator.zipWithIndex) {
        val path = mutable.ArrayBuffer(-1, i)
        for (r <- subtree) {
          path.dropRightInPlace(path.length - r.depth)
          rows += ((r, path.last))
          path += layer1.length + rows.length - 1
        }
      }
      val nodes = layer1 ++ new Array[TCNode](rows.length)
      for (k <- rows.indices.sortBy(rows(_)._1.depth)) { // stable: pre-order within a depth
        val (r, p) = rows(k)
        val node = new TCNode(r.item, nodes(p).pattern :+ r.item, r.decomp)
        nodes(p).children += node
        nodes(layer1.length + k) = node
      }
    }
    bc.destroy()
    new TCTree(root)
  }

  /** A node as seen by its siblings while its subtree is grown: its item and
    * the sorted edge keys of C*_p(0). Lives only inside a build task.
    */
  private final case class Sibling(item: Int, keys: Array[Long])

  /** A node as a build task returns it: depth, item and L_p with its edges as
    * canonical keys, since primitive arrays serialise far faster than
    * vectors of edge tuples.
    */
  private final class Row(val depth: Int, val item: Int, thresholds: Array[Double], removed: Array[Array[Long]])
      extends Serializable {
    def decomp: Decomposition =
      Decomposition(thresholds.indices.map(k => (thresholds(k), removed(k).iterator.map(LocalTruss.dekey).toVector)).toVector)
  }

  private object Row {
    def apply(depth: Int, item: Int, d: Decomposition): Row =
      new Row(depth, item, d.nodes.map(_._1).toArray,
              d.nodes.map(_._2.iterator.map(e => LocalTruss.ekey(e._1, e._2)).toArray).toArray)
  }

  private def computeDecomp(net: CompactNetwork, pattern: Vector[Int], within: Iterable[(Int, Int)]): Decomposition = {
    val f = MinerOps.freqFn(net, pattern)
    LocalTruss.decompose(LocalTruss.themeInduce(within, f), f)
  }

  /** Sorted canonical keys of C*_p(0), i.e. of every edge in L_p. */
  private def edgeKeys(d: Decomposition): Array[Long] = LocalTruss.edgeKeys(d.nodes.iterator.flatMap(_._2))

  /** Appends, in pre-order, the subtree below the node with `pattern` and
    * α = 0 truss `keys`, whose later siblings are `later` (ascending item).
    */
  private def growSubtree(net: CompactNetwork, pattern: Vector[Int], keys: Array[Long], later: Array[Sibling],
                          maxDepth: Int, out: mutable.Growable[Row]): Unit = {
    val children = mutable.ArrayBuffer.empty[(Vector[Int], Decomposition, Sibling)]
    for (b <- later) {
      val within = LocalTruss.intersectKeys(keys, b.keys)
      if (within.nonEmpty) {
        val p = pattern :+ b.item
        val d = computeDecomp(net, p, within.map(LocalTruss.dekey))
        if (!d.isEmpty) children += ((p, d, Sibling(b.item, edgeKeys(d))))
      }
    }
    val sibs = children.map(_._3).toArray
    for (((p, d, c), k) <- children.iterator.zipWithIndex) {
      out += Row(p.length, c.item, d)
      if (p.length < maxDepth) growSubtree(net, p, c.keys, sibs.drop(k + 1), maxDepth, out)
    }
  }
}
