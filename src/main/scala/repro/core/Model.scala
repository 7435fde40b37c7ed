package repro.core

import scala.collection.mutable

/** Table 2 row: the five statistics the paper reports per dataset. */
final case class NetworkStats(
    nVertices: Long,
    nEdges: Long,
    nTransactions: Long,
    nItemsTotal: Long,
    nItemsUnique: Long,
)

/** A database network G = (V, E, D, S) (Section 3.1): the one
  * representation every miner, the TC-Tree and Table 2 run on, small
  * enough to broadcast.
  *
  * Vertices are `0 until n`. Holds sorted, duplicate-free adjacency arrays
  * and, per vertex, its transaction database (a multi-set of transactions,
  * each a duplicate-free item array), plus a vertical index item → sorted tx indices, so that
  * f_i(p) = |∩_{s∈p} txIdx(i)(s)| / |d_i| is an intersection of sorted int
  * arrays — the hot loop of every miner. An item → supporting-vertices
  * index lets a theme network be induced from the vertices of its rarest
  * item instead of from the whole edge list.
  */
final case class CompactNetwork(
    adj: Array[Array[Int]],
    txs: Array[Array[Array[Int]]],
) extends Serializable {

  val n: Int = adj.length

  // Checked on the driver, where the network is built; a broadcast copy is
  // deserialised without running this constructor, so it pays nothing.
  require(txs.length == n, s"${txs.length} vertex databases for $n vertices")
  for (u <- 0 until n; j <- adj(u).indices) {
    val v = adj(u)(j)
    require(v >= 0 && v < n && v != u, s"vertex $u has neighbour $v: not in 0 until $n, or itself")
    require(j == 0 || adj(u)(j - 1) < v, s"neighbours of vertex $u are not strictly ascending")
  }
  for (u <- 0 until n; v <- adj(u))
    require(java.util.Arrays.binarySearch(adj(v), u) >= 0, s"edge ($u, $v) has no reverse ($v, $u)")
  for (u <- 0 until n; t <- txs(u))
    require(t.forall(_ >= 0) && t.distinct.length == t.length,
            s"vertex $u has a transaction with a negative or repeated item: ${t.mkString("[", ", ", "]")}")

  // The derived fields below are @transient: a broadcast then ships only
  // `adj` and `txs`, and each copy derives them again on first use.

  /** Canonical (src<dst) edge list. */
  @transient lazy val edgeList: Array[(Int, Int)] =
    (for { u <- adj.indices.iterator; v <- adj(u).iterator if u < v } yield (u, v)).toArray

  def nEdges: Int = edgeList.length

  /** Per vertex, its distinct items in ascending order. */
  @transient private[core] lazy val txItems: Array[Array[Int]] =
    txs.map(db => db.iterator.flatMap(_.iterator).toArray.distinct.sorted)

  /** Per vertex, parallel to `txItems`: the ascending indices of the
    * transactions that contain each item.
    */
  @transient private lazy val txLists: Array[Array[Array[Int]]] = Array.tabulate(n) { v =>
    val its = txItems(v)
    val lists = Array.fill(its.length)(new mutable.ArrayBuilder.ofInt)
    for ((t, ti) <- txs(v).zipWithIndex; item <- t) lists(java.util.Arrays.binarySearch(its, item)) += ti
    lists.map(_.result())
  }

  /** All distinct items in S (those appearing in at least one transaction). */
  @transient lazy val items: Array[Int] =
    txs.iterator.flatMap(_.iterator.flatMap(_.iterator)).toArray.distinct.sorted

  /** Table 2 statistics: vertices, edges, the transactions that hold at
    * least one item, and items counted distinct within each transaction,
    * in total and over S.
    */
  def stats: NetworkStats = {
    var nTx = 0L
    var total = 0L
    for (db <- txs; t <- db if t.nonEmpty) { nTx += 1; total += t.distinct.length }
    NetworkStats(n, nEdges, nTx, total, items.length)
  }

  /** Parallel to `items`: the ascending vertices whose database holds the item. */
  @transient private lazy val supports: Array[Array[Int]] = {
    val out = Array.fill(items.length)(new mutable.ArrayBuilder.ofInt)
    for (v <- 0 until n; item <- txItems(v)) out(java.util.Arrays.binarySearch(items, item)) += v
    out.map(_.result())
  }

  /** The ascending vertices whose database holds `item` (none if it is not in S). */
  def support(item: Int): Array[Int] = {
    val i = java.util.Arrays.binarySearch(items, item)
    if (i < 0) Array.emptyIntArray else supports(i)
  }

  /** Frequency f_v(p): fraction of v's transactions containing pattern p.
    * f_v(∅) = 1 when v has at least one transaction (every transaction
    * contains the empty pattern), 0 for a vertex with an empty database.
    * One item is a lookup and two are a count-only merge; from three on,
    * the other lists are intersected into a copy of the shortest one in
    * `ws`'s buffers. Nothing is allocated.
    */
  def freq(v: Int, p: Array[Int], ws: Workspace): Double = {
    val nTx = txs(v).length
    if (nTx == 0) return 0.0
    if (p.isEmpty) return 1.0
    val its = txItems(v)
    val lists = txLists(v)
    if (p.length == 1) {
      val i = java.util.Arrays.binarySearch(its, p(0))
      return if (i < 0) 0.0 else lists(i).length.toDouble / nTx
    }
    if (p.length == 2) {
      val i = java.util.Arrays.binarySearch(its, p(0))
      val j = java.util.Arrays.binarySearch(its, p(1))
      return if (i < 0 || j < 0) 0.0 else countCommon(lists(i), lists(j)).toDouble / nTx
    }
    val idx = ws.itemBuffer(p.length)
    var shortest = -1
    var k = 0
    while (k < p.length) {
      val i = java.util.Arrays.binarySearch(its, p(k))
      if (i < 0) return 0.0
      idx(k) = i
      if (shortest < 0 || lists(i).length < lists(shortest).length) shortest = i
      k += 1
    }
    var size = lists(shortest).length
    val acc = ws.txBuffer(size)
    System.arraycopy(lists(shortest), 0, acc, 0, size)
    k = 0
    while (k < p.length && size > 0) {
      val i = idx(k)
      if (i != shortest) {
        val l = lists(i)
        var a = 0; var b = 0; var out = 0
        while (a < size && b < l.length) {
          val x = acc(a); val y = l(b)
          if (x == y) { acc(out) = x; out += 1 }
          if (x <= y) a += 1
          if (y <= x) b += 1
        }
        size = out
      }
      k += 1
    }
    size.toDouble / nTx
  }

  /** How many values two ascending arrays share. */
  private def countCommon(a: Array[Int], b: Array[Int]): Int = {
    var i = 0; var j = 0; var n = 0
    while (i < a.length && j < b.length) {
      val x = a(i); val y = b(j)
      if (x == y) n += 1
      if (x <= y) i += 1
      if (y <= x) j += 1
    }
    n
  }

  /** `freq` with a fresh workspace. */
  def freq(v: Int, p: Array[Int]): Double = freq(v, p, new Workspace)

  def freq(v: Int, p: Vector[Int]): Double = freq(v, p.toArray)

  /** The theme network G_p as the ascending canonical keys
    * (`LocalTruss.ekey`) of the edges whose endpoints both have
    * f_v(p) > 0. The candidate vertices are the support of p's rarest item
    * (for p = ∅, every vertex with a non-empty database), so the work is
    * bounded by their degrees, not by the size of the network. Frequencies
    * and vertex marks use `ws`.
    */
  def themeKeys(p: Array[Int], ws: Workspace): Array[Long] = {
    val kept =
      if (p.isEmpty) Array.range(0, n).filter(txs(_).nonEmpty)
      else {
        val rarest = p.iterator.map(support).minBy(_.length)
        if (p.length == 1) rarest else rarest.filter(freq(_, p, ws) > 0.0)
      }
    // Kept vertices are marked in the workspace's vertex map, then unmarked.
    val mark = ws.vertexMap(n)
    for (u <- kept) mark(u) = 0
    val out = new mutable.ArrayBuilder.ofLong
    var i = 0
    while (i < kept.length) {
      val u = kept(i)
      val nbrs = adj(u)
      var j = 0
      while (j < nbrs.length) {
        val v = nbrs(j)
        if (v > u && mark(v) == 0) out += LocalTruss.ekey(u, v)
        j += 1
      }
      i += 1
    }
    for (u <- kept) mark(u) = -1
    out.result()
  }

  /** `themeKeys` with a fresh workspace. */
  def themeKeys(p: Array[Int]): Array[Long] = themeKeys(p, new Workspace)
}
