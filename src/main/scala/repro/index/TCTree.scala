package repro.index

import org.apache.spark.sql.SparkSession
import repro.core._

import scala.collection.mutable

/** One TC-Tree node: the item appended to the parent's pattern, the full
  * pattern it represents, and the decomposed maximal pattern truss L_p
  * (Section 6.1). Nodes with L_p = ∅ are never materialised (Section 6.2).
  */
final class TCNode(val item: Int, val pattern: Vector[Int], val decomp: Decomposition) {
  /** Most nodes are leaves, so the buffer starts at its smallest size. */
  val children: mutable.ArrayBuffer[TCNode] = new mutable.ArrayBuffer(0)

  /** C*_p(α) edges via Equation 1. */
  def trussAt(alpha: Double): Vector[(Int, Int)] = decomp.trussAt(alpha)
}

/** Result of a TC-Tree query: the retrieved maximal pattern trusses. Truss i
  * has pattern `patterns(i)` and edge keys `keys(i)` from `from(i)` on,
  * a view of the suffix of a node's L_p that Equation 1 selects; `results`
  * derives the (pattern, edge tuples) pairs on each call. `retrievedNodes`
  * is the paper's RN metric (Figure 5).
  */
final class TCQueryResult private[index] (patterns: Array[Vector[Int]], keys: Array[Array[Long]], from: Array[Int]) {
  def retrievedNodes: Int = patterns.length

  def results: Vector[(Vector[Int], Vector[(Int, Int)])] =
    Vector.tabulate(patterns.length)(i => (patterns(i), LocalTruss.dekeyed(keys(i), from(i), keys(i).length)))

  /** Theme communities: maximal connected subgraphs of each retrieved truss. */
  def communities: Seq[(Vector[Int], Set[Int])] =
    patterns.indices.flatMap(i => LocalTruss.components(keys(i), from(i), keys(i).length).map(c => (patterns(i), c)))
}

object TCQueryResult {
  def apply(results: Vector[(Vector[Int], Vector[(Int, Int)])]): TCQueryResult =
    new TCQueryResult(results.map(_._1).toArray, results.map(r => LocalTruss.edgeKeys(r._2)).toArray,
                      new Array[Int](results.length))
}

/** The Theme Community Tree (Section 6.2): a set-enumeration tree over the
  * item universe where each kept node stores the decomposition of its
  * pattern's maximal pattern truss at α = 0. Supports query answering for
  * any (q, α_q) without recomputation (Algorithm 5).
  */
final class TCTree(val root: TCNode) {

  /** Layer d holds the d-item nodes in breadth-first order. Each layer is
    * built only when it is read, and the walk ends at the first empty one.
    */
  private def layers: Iterator[collection.Seq[TCNode]] =
    Iterator.iterate(root.children: collection.Seq[TCNode])(_.flatMap(_.children)).takeWhile(_.nonEmpty)

  /** All non-root nodes in breadth-first order. */
  def nodes: Vector[TCNode] = layers.flatten.toVector

  /** #Nodes of Table 3 (root excluded; every node = one maximal pattern truss). */
  def nNodes: Int = layers.map(_.length).sum

  def maxDepth: Int = layers.length

  /** The nodes of pattern length `depth`, in breadth-first order; walks no deeper. */
  def nodesAtDepth(depth: Int): Vector[TCNode] = layers.slice(depth - 1, depth).flatten.toVector

  /** Largest nontrivial α over the whole tree: for α_q ≥ this, QBA returns ∅. */
  def alphaStar: Double = layers.flatten.foldLeft(0.0)((a, n) => math.max(a, n.decomp.maxAlpha))

  /** Largest item of any node when the tree is wrapped, or -1 for an empty
    * tree: sizes the q flags.
    */
  private val maxItem: Int = layers.flatten.foldLeft(-1)((m, n) => math.max(m, n.item))

  /** Algorithm 5: answer query (q, α_q). Prunes a subtree as soon as the
    * child's item is outside q (its descendants cannot be sub-patterns of q)
    * or the child's truss at α_q is empty (Proposition 5.2 on descendants).
    * q is read through a flag per tree item; items no node carries cannot
    * match and are ignored. A child's truss is non-empty exactly when its
    * `maxAlpha` exceeds α_q + Eps, and is then emitted as a suffix view of
    * its key array (Equation 1), in breadth-first order.
    */
  def query(q: Set[Int], alphaQ: Double): TCQueryResult = {
    require(alphaQ >= 0.0, s"alphaQ must be >= 0, got $alphaQ")
    val inQ = new Array[Boolean](maxItem + 1)
    for (i <- q if i >= 0 && i <= maxItem) inQ(i) = true
    val threshold = alphaQ + LocalTruss.Eps
    val queue = mutable.ArrayBuffer(root) // every retrieved node after the root, in visiting order
    val from = new mutable.ArrayBuilder.ofInt
    var head = 0
    while (head < queue.length) {
      val cs = queue(head).children
      head += 1
      var i = 0
      while (i < cs.length) {
        val nc = cs(i)
        if (inQ(nc.item) && nc.decomp.maxAlpha > threshold) {
          queue += nc
          from += nc.decomp.suffixFrom(alphaQ)
        }
        i += 1
      }
    }
    val retrieved = queue.view.drop(1)
    new TCQueryResult(retrieved.map(_.pattern).toArray, retrieved.map(_.decomp.keys).toArray, from.result())
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
    * OpenMP threads; here it is one job on the `Levelwise` executor, which
    * cuts the items into contiguous ranges and runs one Spark task per
    * range, with the compact network broadcast. Every deeper node lies in
    * the subtree of one layer-1 node n_i and is built only from nodes of
    * that subtree and from n_i's later siblings: a sibling pair (n_f, n_b)
    * with s_{n_f} ≺ s_{n_b} yields child pattern p_f ∪ p_b whose truss is
    * computed *inside* C*_{p_f}(0) ∩ C*_{p_b}(0) (Proposition 5.3). So each
    * layer-1 subtree is an independent unit of work, as in Eclat's prefix
    * equivalence classes (Zaki, TKDE 2000): the α = 0 trusses of layer 1 are
    * broadcast as sorted edge-key arrays, and the second job weights each
    * layer-1 node by its later-sibling count, which the executor cuts into
    * contiguous ranges. One Spark task per range grows each of its subtrees
    * depth-first, intersecting siblings by a linear merge and skipping
    * empty intersections before decomposing.
    * Every theme network is peeled by the primitive kernel
    * (`LocalTruss.decompose` on edge keys): layer 1's are induced from the
    * supports of the items (`CompactNetwork.themeKeys`), deeper ones are
    * the sibling intersections themselves. Each task runs every
    * intersection, decomposition and frequency in the `Workspace` the
    * executor hands it. The tasks return their nodes in pre-order; the
    * driver only attaches them.
    *
    * @param maxDepth safety cap on pattern length (the enumeration
    *                 terminates on its own when decompositions are empty).
    */
  def build(spark: SparkSession, net: CompactNetwork, maxDepth: Int = Int.MaxValue): TCTree = {
    require(maxDepth >= 1, s"maxDepth must be >= 1, got $maxDepth")
    val exec = new Levelwise.SparkExec(spark, net)
    try build(exec, net, maxDepth)
    finally exec.close()
  }

  /** `build` with a plain loop in place of each Spark job: the same
    * layer-1 and subtree workers, one range per job, on the calling thread.
    */
  def serial(net: CompactNetwork, maxDepth: Int = Int.MaxValue): TCTree = {
    require(maxDepth >= 1, s"maxDepth must be >= 1, got $maxDepth")
    build(new Levelwise.SerialExec(net), net, maxDepth)
  }

  private def build(exec: Levelwise.Exec, net: CompactNetwork, maxDepth: Int): TCTree = {
    val root = new TCNode(-1, Vector.empty, Decomposition.empty)

    // Layer 1: every item of S (Algorithm 4 lines 2-5).
    val items = net.items
    val layer1 = exec(items, Array.fill(items.length)(1L))(layer1Rows)
      .flatten
      .map(r => new TCNode(r.item, Vector(r.item), r.decomp))
      .toArray
    root.children ++= layer1

    // Deeper layers (Algorithm 4 lines 6-12): one task per range of
    // layer-1 subtrees. The last node has no later sibling, hence no subtree.
    if (maxDepth > 1 && layer1.length > 1) {
      val sibs = layer1.map(n => Sibling(n.item, edgeKeys(n.decomp)))
      val weights = Array.tabulate(layer1.length)(i => (layer1.length - 1 - i).toLong)
      val subtrees = exec(sibs, weights) { (n, ss, from, until, ws) =>
        Array.tabulate(until - from) { k =>
          val i = from + k
          val out = Array.newBuilder[Row]
          growSubtree(n, Array(ss(i).item), ss(i).keys, ss, i + 1, maxDepth, ws, out)
          out.result()
        }
      }.flatten
      attach(layer1, subtrees)
    }
    new TCTree(root)
  }

  /** Layer-1 task: the decomposition of each item `items(from until until)`'s theme network, in `ws`. */
  private def layer1Rows(net: CompactNetwork, items: Array[Int], from: Int, until: Int, ws: Workspace): Array[Row] = {
    val out = Array.newBuilder[Row]
    for (i <- from until until) {
      val p = Array(items(i))
      val keys = net.themeKeys(p, ws)
      val d = LocalTruss.decompose(keys, keys.length, net.freq(_, p, ws), ws)
      if (!d.isEmpty) out += Row(1, items(i), d)
    }
    out.result()
  }

  /** Attaches the rows of each layer-1 subtree, given in pre-order, below
    * `layer1`. A row's parent is the last row one level up. Nodes are
    * created depth by depth, in pre-order within a depth (a stable counting
    * sort on depth): that is the breadth-first order in which Algorithm 5
    * walks them, so the tree is laid out in memory the way queries read it.
    */
  private def attach(layer1: Array[TCNode], subtrees: Seq[Array[Row]]): Unit = {
    val rows = subtrees.iterator.flatten.toArray
    val maxDepth = rows.iterator.map(_.depth).maxOption.getOrElse(1)
    val parent = new Array[Int](rows.length) // index in `nodes`: layer1, then rows
    val path = new Array[Int](maxDepth + 1)  // path(d): the last node seen at depth d
    var k = 0
    for ((subtree, i) <- subtrees.iterator.zipWithIndex) {
      path(1) = i
      for (r <- subtree) {
        parent(k) = path(r.depth - 1)
        path(r.depth) = layer1.length + k
        k += 1
      }
    }
    val start = new Array[Int](maxDepth + 2)
    for (r <- rows) start(r.depth + 1) += 1
    for (d <- 1 until start.length) start(d) += start(d - 1)
    val order = new Array[Int](rows.length)
    for (k <- rows.indices) { order(start(rows(k).depth)) = k; start(rows(k).depth) += 1 }
    val nodes = layer1 ++ new Array[TCNode](rows.length)
    for (k <- order) {
      val node = new TCNode(rows(k).item, nodes(parent(k)).pattern :+ rows(k).item, rows(k).decomp)
      nodes(parent(k)).children += node
      nodes(layer1.length + k) = node
    }
  }

  /** A node as seen by its siblings while its subtree is grown: its item and
    * the sorted edge keys of C*_p(0). Lives only inside a build task.
    */
  private final case class Sibling(item: Int, keys: Array[Long])

  /** A node as a build task returns it: depth, item and L_p, whose primitive
    * arrays serialise as they are.
    */
  private final case class Row(depth: Int, item: Int, decomp: Decomposition)

  /** Sorted canonical keys of C*_p(0), i.e. of every edge in L_p. */
  private def edgeKeys(d: Decomposition): Array[Long] = {
    val keys = d.keys.clone()
    java.util.Arrays.sort(keys)
    keys
  }

  /** Appends, in pre-order, the subtree below the node with `pattern` and
    * α = 0 truss `keys`, whose later siblings are `sibs(from until)`
    * (ascending item). Every intersection, decomposition and frequency
    * runs in `ws`.
    */
  private def growSubtree(net: CompactNetwork, pattern: Array[Int], keys: Array[Long], sibs: Array[Sibling],
                          from: Int, maxDepth: Int, ws: Workspace, out: mutable.Growable[Row]): Unit = {
    val children = mutable.ArrayBuffer.empty[(Array[Int], Decomposition, Sibling)]
    for (j <- from until sibs.length) {
      val b = sibs(j)
      val n = ws.intersect(keys, 0, keys.length, b.keys, 0, b.keys.length)
      if (n > 0) {
        val p = java.util.Arrays.copyOf(pattern, pattern.length + 1)
        p(pattern.length) = b.item
        val d = LocalTruss.decompose(ws.intersection, n, net.freq(_, p, ws), ws)
        if (!d.isEmpty) children += ((p, d, Sibling(b.item, edgeKeys(d))))
      }
    }
    val next = children.map(_._3).toArray
    for (((p, d, c), k) <- children.iterator.zipWithIndex) {
      out += Row(p.length, c.item, d)
      if (p.length < maxDepth) growSubtree(net, p, c.keys, next, k + 1, maxDepth, ws, out)
    }
  }
}
