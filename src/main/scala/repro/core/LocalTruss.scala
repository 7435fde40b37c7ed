package repro.core

import scala.reflect.ClassTag

/** A maximal pattern truss C*_p(α), held as its canonical edge keys
  * (`LocalTruss.ekey`) in ascending order. Edges and the vertex set are
  * views derived on each call.
  */
final class Truss(val keys: Array[Long]) extends Serializable {
  def isEmpty: Boolean = keys.isEmpty
  def nEdges: Int = keys.length

  /** Canonical (src<dst) edges in ascending order. */
  def edges: Vector[(Int, Int)] = keys.iterator.map(LocalTruss.dekey).toVector

  def vertices: Set[Int] = edges.iterator.flatMap(e => Iterator(e._1, e._2)).toSet

  def nVertices: Int = LocalTruss.endpoints(keys, 0, keys.length).length

  /** Edge-set intersection with another truss (Proposition 5.3 pruning). */
  def intersectEdges(other: Truss): Vector[(Int, Int)] =
    LocalTruss.intersectKeys(keys, other.keys).iterator.map(LocalTruss.dekey).toVector

  override def equals(o: Any): Boolean = o match {
    case t: Truss => java.util.Arrays.equals(keys, t.keys)
    case _        => false
  }
  override def hashCode: Int = java.util.Arrays.hashCode(keys)
}

/** The decomposed maximal pattern truss L_p of Section 6.1, held in the
  * shape Algorithm 5 reads it: `thresholds` are the strictly ascending α_k,
  * `keys` are the canonical edge keys (`LocalTruss.ekey`) of every edge of
  * C*_p(0) in removal order, and R_p(α_k) is the group
  * `keys(offsets(k) until offsets(k + 1))`, sorted within itself.
  *
  * Because thresholds ascend, Equation 1's E*_p(α) = ∪_{α_k > α} R_p(α_k)
  * is a suffix of `keys`: one binary search finds where it starts, and the
  * ∅ case is the O(1) test `maxAlpha > α + Eps`. Only the three primitive
  * arrays are held; `nodes` and `trussAt` are tuple views derived on each
  * call.
  */
final class Decomposition(val thresholds: Array[Double], val keys: Array[Long], val offsets: Array[Int])
    extends Serializable {
  require(offsets.length == thresholds.length + 1 && offsets(0) == 0 && offsets.last == keys.length,
          "offsets delimit one key group per threshold")

  def isEmpty: Boolean = thresholds.isEmpty
  def nEdgesTotal: Int = keys.length

  /** Nontrivial upper bound α*_p: C*_p(α) = ∅ for every α ≥ maxAlpha. */
  def maxAlpha: Double = if (isEmpty) 0.0 else thresholds(thresholds.length - 1)

  /** Equation 1 as edge keys: E*_p(α) is `keys` from this index on, the
    * offset of the first group with α_k > α + Eps (`keys.length` if there is
    * none). Uses the same comparison tolerance as the peeling, so
    * reconstruction matches direct MPTD even when a cohesion value ties with
    * α up to floating-point noise.
    */
  def suffixFrom(alpha: Double): Int = {
    val t = alpha + LocalTruss.Eps
    var lo = 0; var hi = thresholds.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (thresholds(mid) > t) hi = mid else lo = mid + 1
    }
    offsets(lo)
  }

  /** L_p as (α_k, R_p(α_k)) pairs with edges as (src < dst) tuples. */
  def nodes: Vector[(Double, Vector[(Int, Int)])] =
    Vector.tabulate(thresholds.length)(k => (thresholds(k), LocalTruss.dekeyed(keys, offsets(k), offsets(k + 1))))

  /** Equation 1: E*_p(α) = ∪_{α_k > α} R_p(α_k), as edge tuples. */
  def trussAt(alpha: Double): Vector[(Int, Int)] = LocalTruss.dekeyed(keys, suffixFrom(alpha), keys.length)
}

object Decomposition {
  val empty: Decomposition = new Decomposition(Array.emptyDoubleArray, Array.emptyLongArray, Array(0))
}

/** Exact, driver-local implementations of the paper's graph kernels:
  * Algorithm 1 (MPTD), the ascending-threshold truss decomposition of
  * Theorem 6.1, and theme-community extraction (maximal connected subgraphs).
  *
  * These run on one theme network at a time; the miners distribute *patterns*
  * across Spark tasks and call these kernels per pattern, because maximal
  * pattern trusses are small local subgraphs (paper Section 7.2).
  */
object LocalTruss {

  /** Comparison tolerance for `eco > α`. Edge cohesions are sums of
    * rational frequencies accumulated in different orders by the different
    * computations (initial sums, decremental peeling, the SQL oracle's
    * aggregation); a tie at exactly α would otherwise resolve differently
    * per computation. Real cohesion gaps are ≫ 1e-9, floating-point
    * noise is ≪ 1e-9, so "≤ α" is implemented as "≤ α + Eps" everywhere.
    */
  val Eps: Double = 1e-9

  /** Canonical undirected edge key. */
  def ekey(u: Int, v: Int): Long =
    if (u < v) (u.toLong << 32) | (v.toLong & 0xffffffffL)
    else       (v.toLong << 32) | (u.toLong & 0xffffffffL)

  def dekey(k: Long): (Int, Int) = ((k >> 32).toInt, k.toInt)

  /** The edges keyed by `keys(from until until)`, in that order. */
  def dekeyed(keys: Array[Long], from: Int, until: Int): Vector[(Int, Int)] =
    Vector.tabulate(until - from)(i => dekey(keys(from + i)))

  /** Canonical keys of `edges`, sorted ascending. */
  def edgeKeys(edges: IterableOnce[(Int, Int)]): Array[Long] = {
    val keys = edges.iterator.map(e => ekey(e._1, e._2)).toArray
    java.util.Arrays.sort(keys)
    keys
  }

  /** Linear merge of two ascending key arrays: the keys in both. */
  def intersectKeys(a: Array[Long], b: Array[Long]): Array[Long] = {
    val out = new Array[Long](math.min(a.length, b.length))
    java.util.Arrays.copyOf(out, intersectInto(a, 0, a.length, b, 0, b.length, out))
  }

  /** Writes the keys in both ascending slices `a(aFrom until aUntil)` and
    * `b(bFrom until bUntil)` to `out`, in order, and returns how many there
    * are. `out` holds at least the shorter slice. Disjoint key ranges are
    * answered without a merge.
    */
  private[core] def intersectInto(a: Array[Long], aFrom: Int, aUntil: Int, b: Array[Long], bFrom: Int, bUntil: Int,
                                  out: Array[Long]): Int = {
    if (aFrom >= aUntil || bFrom >= bUntil || a(aUntil - 1) < b(bFrom) || b(bUntil - 1) < a(aFrom)) return 0
    var i = aFrom; var j = bFrom; var k = 0
    while (i < aUntil && j < bUntil) {
      val x = a(i); val y = b(j)
      if (x == y) { out(k) = x; k += 1 }
      if (x <= y) i += 1
      if (y <= x) j += 1
    }
    k
  }

  /** Induce the theme network G_p restricted to `edges`: keep only edges
    * whose both endpoints have positive pattern frequency.
    */
  def themeInduce(edges: Iterable[(Int, Int)], freq: Int => Double): Vector[(Int, Int)] =
    edges.iterator
      .filter { case (u, v) => freq(u) > 0.0 && freq(v) > 0.0 }
      .map { case (u, v) => if (u < v) (u, v) else (v, u) }
      .toVector

  /** Ascending, duplicate-free canonical keys of `edges`, self-loops dropped. */
  private def simpleKeys(edges: Iterable[(Int, Int)]): Array[Long] = {
    val keys = edgeKeys(edges.iterator.filter(e => e._1 != e._2))
    var n = 0
    for (i <- keys.indices if i == 0 || keys(i) != keys(i - 1)) { keys(n) = keys(i); n += 1 }
    java.util.Arrays.copyOf(keys, n)
  }

  /** The ascending distinct endpoints of the edges keyed by `keys(from until until)`. */
  private[core] def endpoints(keys: Array[Long], from: Int, until: Int): Array[Int] = {
    val ends = new Array[Int](2 * (until - from))
    for (i <- from until until) { ends(2 * (i - from)) = (keys(i) >> 32).toInt; ends(2 * (i - from) + 1) = keys(i).toInt }
    java.util.Arrays.sort(ends)
    var n = 0
    for (i <- ends.indices if i == 0 || ends(i) != ends(i - 1)) { ends(n) = ends(i); n += 1 }
    java.util.Arrays.copyOf(ends, n)
  }

  /** Algorithm 1: the maximal pattern truss C*_p(α) of the theme network
    * on the edges keyed by `keys(0 until n)` (ascending canonical keys of
    * vertices ≥ 0, no self-loops) with vertex frequencies `freq`. The keys
    * need not be theme-induced: edges with a zero-frequency endpoint are
    * dropped. All scratch memory comes from `ws`.
    */
  def mptd(keys: Array[Long], n: Int, freq: Int => Double, alpha: Double, ws: Workspace): Truss = {
    require(alpha >= 0.0, s"alpha must be >= 0, got $alpha")
    ws.mptd(keys, n, freq, alpha)
  }

  /** `mptd` of every key in `keys`, with a fresh workspace. */
  def mptd(keys: Array[Long], freq: Int => Double, alpha: Double): Truss =
    mptd(keys, keys.length, freq, alpha, new Workspace)

  /** `mptd` of any edges: orientation, duplicates and self-loops are ignored. */
  def mptd(edges: Iterable[(Int, Int)], freq: Int => Double, alpha: Double): Truss =
    mptd(simpleKeys(edges), freq, alpha)

  /** Theorem 6.1 decomposition of C*_p(0) into L_p, for the edges keyed by
    * `keys(0 until n)` as in `mptd`: repeatedly set the next threshold to
    * the minimum surviving edge cohesion β and record the edges removed by
    * peeling at β. Terminates because each step removes ≥ 1 edge. All
    * scratch memory comes from `ws`.
    */
  def decompose(keys: Array[Long], n: Int, freq: Int => Double, ws: Workspace): Decomposition =
    ws.decompose(keys, n, freq)

  /** `decompose` of every key in `keys`, with a fresh workspace. */
  def decompose(keys: Array[Long], freq: Int => Double): Decomposition =
    decompose(keys, keys.length, freq, new Workspace)

  /** `decompose` of any edges: orientation, duplicates and self-loops are ignored. */
  def decompose(edges: Iterable[(Int, Int)], freq: Int => Double): Decomposition =
    decompose(simpleKeys(edges), freq)

  /** Maximal connected subgraphs of a truss = the theme communities
    * (Definition 3.5), as vertex sets, largest first (ties by least vertex).
    */
  def connectedComponents(edges: Iterable[(Int, Int)]): Vector[Set[Int]] = {
    val keys = edgeKeys(edges)
    components(keys, 0, keys.length)
  }

  /** `connectedComponents` of the edges keyed by `keys(from until until)`:
    * the endpoints are sorted and relabelled 0 until n, then one union-find
    * over `Array[Int]` joins them.
    */
  def components(keys: Array[Long], from: Int, until: Int): Vector[Set[Int]] = {
    val ends = endpoints(keys, from, until)
    val n = ends.length
    val root = Array.tabulate(n)(identity)
    def find(x: Int): Int = {
      var r = x
      while (root(r) != r) r = root(r)
      var c = x
      while (root(c) != r) { val nx = root(c); root(c) = r; c = nx }
      r
    }
    for (e <- from until until) {
      val ru = find(java.util.Arrays.binarySearch(ends, (keys(e) >> 32).toInt))
      val rv = find(java.util.Arrays.binarySearch(ends, keys(e).toInt))
      if (ru < rv) root(rv) = ru else if (rv < ru) root(ru) = rv
    }
    // Each root is the least label, i.e. the least vertex, of its
    // component: listing roots in label order lists components by least
    // vertex, and the stable sort then puts the largest first.
    val size = new Array[Int](n)
    for (v <- 0 until n) { root(v) = find(v); size(root(v)) += 1 }
    val roots = (0 until n).filter(v => root(v) == v)
    val start = new Array[Int](n)
    roots.foldLeft(0) { (acc, r) => start(r) = acc; acc + size(r) }
    val members = new Array[Int](n)
    for (v <- 0 until n) { members(start(root(v))) = ends(v); start(root(v)) += 1 }
    roots.iterator.map(r => Set.from(Iterator.range(start(r) - size(r), start(r)).map(members))).toVector.sortBy(-_.size)
  }
}

/** The scratch memory of the peeling kernel behind `LocalTruss.mptd` and
  * `LocalTruss.decompose`, of the buffered key intersection (`intersect`)
  * and of `CompactNetwork.freq`, reused from call to call. Each array grows
  * geometrically to the largest call seen and is never shrunk; a call
  * overwrites only the prefix it reads. A workspace is not thread-safe:
  * the executor (`Levelwise.Exec`) hands each task a fresh one, which the
  * task passes to every kernel call it makes and which is dropped when the
  * task ends, so no workspace outlives the job that used it.
  *
  * A kernel call loads the theme network on ascending canonical edge keys.
  * The distinct endpoints are collected through a vertex → local-id map
  * and sorted, so local ids ascend with vertex ids, and each endpoint's
  * frequency is read once. Edges with a zero-frequency endpoint are dropped
  * there: that is theme induction, and it changes no cohesion, since every
  * triangle through such a vertex adds 0. The other edges keep their key
  * order as edge ids 0 until m and form a CSR whose neighbour lists are
  * ascending, with a parallel edge-id array: because the keys ascend,
  * filling it in key order sorts every list. Common neighbours are found by
  * a linear merge of two lists, so each cohesion is summed in ascending
  * neighbour order and equal edge sets give bit-equal cohesions whichever
  * path built them.
  *
  * Peeling clears live flags instead of removing edges from the lists. Each
  * edge enters the `Int` queue at most once per call (its queued flag stays
  * set), so `queue(from until tail)` are the edges one `peel` removed, in
  * removal order.
  */
final class Workspace {

  /** Vertex id → local id; every entry is −1 between calls. */
  private var local = Array.emptyIntArray
  /** Local id → vertex id, ascending, and that vertex's frequency. */
  private var verts = Array.emptyIntArray
  private var f = Array.emptyDoubleArray
  private var nv = 0

  /** Edge e < m has key keys(e) and local ends eu(e) < ev(e); ids follow key order. */
  private var keys = Array.emptyLongArray
  private var eu = Array.emptyIntArray
  private var ev = Array.emptyIntArray
  private var m = 0
  /** Local vertex x's neighbours are nbr(off(x) until off(x + 1)), ascending, joined by edges eid(·). */
  private var off = Array.emptyIntArray
  private var nbr = Array.emptyIntArray
  private var eid = Array.emptyIntArray

  private var eco = Array.emptyDoubleArray
  private var live = Array.emptyBooleanArray
  private var nLive = 0
  private var queued = Array.emptyBooleanArray
  private var queue = Array.emptyIntArray
  private var tail = 0

  /** A decomposition's thresholds and group offsets while it is built. */
  private var steps = Array.emptyDoubleArray
  private var stepEnds = Array.emptyIntArray

  private var common = Array.emptyLongArray
  private var txScratch = Array.emptyIntArray
  private var itemScratch = Array.emptyIntArray

  /** The keys the last `intersect` found, at `0 until` its result. */
  def intersection: Array[Long] = common

  /** Writes the keys in both ascending slices `a(aFrom until aUntil)` and
    * `b(bFrom until bUntil)` to `intersection`, in order, and returns how
    * many there are.
    */
  def intersect(a: Array[Long], aFrom: Int, aUntil: Int, b: Array[Long], bFrom: Int, bUntil: Int): Int = {
    common = grown(common, math.min(aUntil - aFrom, bUntil - bFrom))
    LocalTruss.intersectInto(a, aFrom, aUntil, b, bFrom, bUntil, common)
  }

  /** The vertex → local-id map, covering vertices `0 until n`. Every entry
    * is −1 between calls: a caller that sets entries restores them.
    */
  private[core] def vertexMap(n: Int): Array[Int] = {
    if (local.length < n) {
      local = new Array[Int](math.max(n, 2 * local.length))
      java.util.Arrays.fill(local, -1)
    }
    local
  }

  /** `CompactNetwork.freq`'s buffer of transaction indices, of at least `n` entries. */
  private[core] def txBuffer(n: Int): Array[Int] = {
    txScratch = grown(txScratch, n)
    txScratch
  }

  /** `CompactNetwork.freq`'s buffer of item-list indices, of at least `n` entries. */
  private[core] def itemBuffer(n: Int): Array[Int] = {
    itemScratch = grown(itemScratch, n)
    itemScratch
  }

  private[core] def mptd(in: Array[Long], n: Int, freq: Int => Double, alpha: Double): Truss = {
    load(in, n, freq)
    peel(alpha)
    val out = new Array[Long](nLive)
    var k = 0
    var e = 0
    while (e < m) {
      if (live(e)) { out(k) = keys(e); k += 1 }
      e += 1
    }
    new Truss(out)
  }

  private[core] def decompose(in: Array[Long], n: Int, freq: Int => Double): Decomposition = {
    load(in, n, freq)
    peel(0.0)
    val out = new Array[Long](nLive)
    steps = grown(steps, nLive)
    stepEnds = grown(stepEnds, nLive)
    var nSteps = 0
    var k = 0
    while (nLive > 0) {
      val beta = minLive
      val from = tail
      peel(beta)
      // Edge ids follow key order, so sorting the ids sorts the group's keys.
      java.util.Arrays.sort(queue, from, tail)
      var i = from
      while (i < tail) { out(k) = keys(queue(i)); k += 1; i += 1 }
      steps(nSteps) = beta
      stepEnds(nSteps) = k
      nSteps += 1
    }
    val offsets = new Array[Int](nSteps + 1)
    System.arraycopy(stepEnds, 0, offsets, 1, nSteps)
    new Decomposition(java.util.Arrays.copyOf(steps, nSteps), out, offsets)
  }

  /** Loads the theme network on the edges keyed by `in(0 until n)` and
    * computes every initial cohesion (Algorithm 1 lines 2-8).
    */
  private def load(in: Array[Long], n: Int, freq: Int => Double): Unit = {
    require(n == 0 || (in(0) >> 32) >= 0, "vertex ids must be >= 0")
    // Keys ascend and u < v, so in(0) holds the least endpoint and every
    // endpoint is at most the largest v.
    var maxV = -1
    var i = 0
    while (i < n) { maxV = math.max(maxV, in(i).toInt); i += 1 }
    vertexMap(maxV + 1)

    verts = grown(verts, math.min(2 * n, maxV + 1))
    nv = 0
    i = 0
    while (i < n) {
      val u = (in(i) >> 32).toInt; val v = in(i).toInt
      if (local(u) < 0) { local(u) = 0; verts(nv) = u; nv += 1 }
      if (local(v) < 0) { local(v) = 0; verts(nv) = v; nv += 1 }
      i += 1
    }
    java.util.Arrays.sort(verts, 0, nv)
    f = grown(f, nv)
    var x = 0
    while (x < nv) { local(verts(x)) = x; f(x) = freq(verts(x)); x += 1 }

    keys = grown(keys, n); eu = grown(eu, n); ev = grown(ev, n)
    m = 0
    i = 0
    while (i < n) {
      val k = in(i)
      val u = local((k >> 32).toInt); val v = local(k.toInt)
      if (f(u) > 0.0 && f(v) > 0.0) { keys(m) = k; eu(m) = u; ev(m) = v; m += 1 }
      i += 1
    }
    x = 0
    while (x < nv) { local(verts(x)) = -1; x += 1 }

    off = grown(off, nv + 1)
    java.util.Arrays.fill(off, 0, nv + 1, 0)
    var e = 0
    while (e < m) { off(eu(e) + 1) += 1; off(ev(e) + 1) += 1; e += 1 }
    x = 0
    while (x < nv) { off(x + 1) += off(x); x += 1 }
    // off(x) is x's fill cursor, so it ends at x's old off(x + 1); one
    // shift restores the offsets.
    nbr = grown(nbr, 2 * m); eid = grown(eid, 2 * m)
    e = 0
    while (e < m) {
      val u = eu(e); val v = ev(e)
      nbr(off(u)) = v; eid(off(u)) = e; off(u) += 1
      nbr(off(v)) = u; eid(off(v)) = e; off(v) += 1
      e += 1
    }
    System.arraycopy(off, 0, off, 1, nv)
    off(0) = 0

    eco = grown(eco, m)
    live = grown(live, m); java.util.Arrays.fill(live, 0, m, true)
    queued = grown(queued, m); java.util.Arrays.fill(queued, 0, m, false)
    queue = grown(queue, m)
    nLive = m
    tail = 0
    // Initial cohesion: for each edge, sum over the triangles containing it
    // of the min frequency of the three corners.
    e = 0
    while (e < m) {
      val u = eu(e); val v = ev(e)
      val fuv = math.min(f(u), f(v))
      var s = 0.0
      var i = off(u); var j = off(v)
      val iEnd = off(u + 1); val jEnd = off(v + 1)
      while (i < iEnd && j < jEnd) {
        val a = nbr(i); val b = nbr(j)
        if (a == b) s += math.min(fuv, f(a))
        if (a <= b) i += 1
        if (b <= a) j += 1
      }
      eco(e) = s
      e += 1
    }
  }

  /** `a` if it holds `n` entries, else a fresh array of at least twice its size. */
  private def grown[A: ClassTag](a: Array[A], n: Int): Array[A] =
    if (a.length >= n) a else new Array[A](math.max(n, 2 * a.length))

  private def enqueue(e: Int): Unit = { queued(e) = true; queue(tail) = e; tail += 1 }

  /** Remove every live edge whose cohesion is ≤ α, cascading (Algorithm 1
    * lines 9-18): each removal takes its triangles' share off the
    * triangles' two other edges while both are still live.
    */
  private def peel(alpha: Double): Unit = {
    val threshold = alpha + LocalTruss.Eps
    var head = tail
    var e0 = 0
    while (e0 < m) {
      if (live(e0) && !queued(e0) && eco(e0) <= threshold) enqueue(e0)
      e0 += 1
    }
    while (head < tail) {
      val e = queue(head)
      head += 1
      live(e) = false; nLive -= 1
      val u = eu(e); val v = ev(e)
      val fuv = math.min(f(u), f(v))
      var i = off(u); var j = off(v)
      val iEnd = off(u + 1); val jEnd = off(v + 1)
      while (i < iEnd && j < jEnd) {
        val w = nbr(i); val w2 = nbr(j)
        if (w == w2) {
          val a = eid(i); val b = eid(j)
          if (live(a) && live(b)) {
            val d = math.min(fuv, f(w))
            eco(a) -= d; eco(b) -= d
            if (!queued(a) && eco(a) <= threshold) enqueue(a)
            if (!queued(b) && eco(b) <= threshold) enqueue(b)
          }
        }
        if (w <= w2) i += 1
        if (w2 <= w) j += 1
      }
    }
  }

  /** The least cohesion of a live edge: the next threshold of Theorem 6.1. */
  private def minLive: Double = {
    var min = Double.PositiveInfinity
    var e = 0
    while (e < m) {
      if (live(e) && eco(e) < min) min = eco(e)
      e += 1
    }
    min
  }
}
