package repro.core

/** Pattern (theme) algebra.
  *
  * A pattern is an itemset `p ⊆ S`. We encode items as non-negative `Int`
  * ids and a pattern as a canonically *sorted* `Vector[Int]` so patterns can
  * be used as map keys and written in the set-enumeration-tree item order ≺
  * required by the TC-Tree (Section 6.2 of the paper).
  */
object Pattern {

  /** Canonical pattern: distinct items, ascending order. */
  def apply(items: Iterable[Int]): Vector[Int] = items.toVector.distinct.sorted

  /** Human-readable key, e.g. "3|17|42". Empty pattern renders as "∅". */
  def key(p: Vector[Int]): String = if (p.isEmpty) "∅" else p.mkString("|")

  /** True iff `sub` ⊆ `sup`; both must be canonical (sorted, distinct). */
  def isSubPattern(sub: Vector[Int], sup: Vector[Int]): Boolean = {
    var i = 0; var j = 0
    while (i < sub.length && j < sup.length) {
      if (sub(i) == sup(j)) { i += 1; j += 1 }
      else if (sub(i) > sup(j)) j += 1
      else return false
    }
    i == sub.length
  }

  /** All length-(|p|-1) sub-patterns of `p` (each obtained by dropping one item). */
  def subPatternsDropOne(p: Vector[Int]): Seq[Vector[Int]] =
    p.indices.map(i => p.patch(i, Nil, 1))

  /** Algorithm 2 (Generate Apriori Candidate Patterns).
    *
    * Joins every pair of length-(k−1) qualified patterns whose union has
    * length k, and keeps a candidate only if *all* of its length-(k−1)
    * sub-patterns are qualified. Returns each candidate together with one
    * generating parent pair — TCFI (Section 5.3) induces the candidate's
    * theme network from the intersection of that pair's maximal pattern
    * trusses.
    *
    * A plain adapter over `PatternSet.join`, the join the level-wise miners
    * run inside their Spark tasks.
    */
  def aprioriJoin(qualified: Seq[Vector[Int]])
      : Seq[(Vector[Int], (Vector[Int], Vector[Int]))] = {
    if (qualified.isEmpty) return Nil
    val k1 = qualified.head.length
    require(qualified.forall(_.length == k1), "all parents must share one length")
    val ps = PatternSet(k1, qualified)
    val out = Vector.newBuilder[(Vector[Int], (Vector[Int], Vector[Int]))]
    for (r <- 0 until ps.size) ps.join(r)((s, c) => out += ((c.toVector, (ps(r), ps(s)))))
    out.result()
  }
}

/** Distinct length-`width` patterns in ascending lexicographic order, held
  * flat: pattern r is `items(r·width until (r+1)·width)`.
  *
  * Consecutive patterns that share their first width−1 items form a prefix
  * class, Eclat's equivalence class (Zaki, TKDE 2000). Algorithm 2 joins
  * two patterns only inside one class: two sorted patterns with a common
  * (width−1)-prefix have exactly one union of length width+1, and every
  * such itemset with all subsets qualified is generated exactly once.
  */
final class PatternSet(val width: Int, val items: Array[Int]) extends Serializable {
  require(width > 0 && items.length % width == 0, s"$width-item patterns cannot fill ${items.length} items")

  val size: Int = items.length / width

  def apply(r: Int): Vector[Int] = items.slice(r * width, (r + 1) * width).toVector

  /** Whether patterns r and s share their first width−1 items. */
  private def sameClass(r: Int, s: Int): Boolean = {
    var i = 0
    while (i < width - 1) {
      if (items(r * width + i) != items(s * width + i)) return false
      i += 1
    }
    true
  }

  /** For each pattern, how many later patterns share its class: the pairs
    * `join` tries for it.
    */
  def laterInClass: Array[Int] = {
    val out = new Array[Int](size)
    for (r <- size - 2 to 0 by -1) if (sameClass(r, r + 1)) out(r) = out(r + 1) + 1
    out
  }

  /** Index of `c` with its item at position `skip` dropped (none if
    * `skip` is out of range), or −1 if that pattern is not in the set.
    */
  def indexOf(c: Array[Int], skip: Int = -1): Int = {
    var lo = 0; var hi = size - 1
    while (lo <= hi) {
      val mid = (lo + hi) >>> 1
      val cmp = compareWithout(mid, c, skip)
      if (cmp == 0) return mid
      if (cmp < 0) lo = mid + 1 else hi = mid - 1
    }
    -1
  }

  private def compareWithout(r: Int, c: Array[Int], skip: Int): Int = {
    var i = 0; var j = 0
    while (i < width) {
      if (j == skip) j += 1
      val a = items(r * width + i)
      if (a != c(j)) return Integer.compare(a, c(j))
      i += 1; j += 1
    }
    0
  }

  /** Algorithm 2 for pattern r: joins it with each later pattern s of its
    * class and passes `emit(s, candidate)`, in ascending candidate order,
    * every union whose other length-width sub-patterns are all in the set.
    * The two parents are the sub-patterns without the last and without the
    * next-to-last item, so only the width−1 others are looked up.
    */
  def join(r: Int)(emit: (Int, Array[Int]) => Unit): Unit = {
    var s = r + 1
    while (s < size && sameClass(r, s)) {
      val c = java.util.Arrays.copyOfRange(items, r * width, (r + 1) * width + 1)
      c(width) = items((s + 1) * width - 1)
      var d = 0
      while (d < width - 1 && indexOf(c, d) >= 0) d += 1
      if (d == width - 1) emit(s, c)
      s += 1
    }
  }
}

object PatternSet {
  def apply(width: Int, patterns: Seq[Vector[Int]]): PatternSet =
    new PatternSet(width, patterns.distinct.sorted(Ordering.Implicits.seqOrdering[Vector, Int]).flatten.toArray)
}
