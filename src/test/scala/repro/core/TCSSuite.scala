package repro.core

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

/** TCS's per-vertex frequent-pattern enumeration (`TCS.localFrequentPatterns`,
  * Algorithm 2 on one vertex database) against hand cases and brute force.
  * Each database is the one vertex of a network without edges.
  */
class TCSSuite extends AnyFunSuite {

  private def localFrequentPatterns(db: IndexedSeq[Array[Int]], eps: Double, maxLen: Int): Vector[Vector[Int]] = {
    val net = CompactNetwork(Array(Array.emptyIntArray), Array(db.toArray))
    TCS.localFrequentPatterns(net, 0, eps, maxLen, new Workspace).flatMap(ps => (0 until ps.size).map(ps(_)))
  }

  test("localFrequentPatterns: hand case with strict threshold") {
    val db = IndexedSeq(Array(0, 1), Array(0, 1), Array(0, 2), Array(2))
    // f(0)=0.75, f(1)=0.5, f(2)=0.5, f(01)=0.5, f(02)=0.25
    val got = localFrequentPatterns(db, 0.4, 6).toSet
    assert(got == Set(Vector(0), Vector(1), Vector(2), Vector(0, 1)))
    // strictness: eps = 0.5 excludes everything at frequency exactly 0.5
    assert(localFrequentPatterns(db, 0.5, 6).toSet == Set(Vector(0)))
  }

  test("localFrequentPatterns respects maxLen") {
    val db = IndexedSeq(Array(0, 1, 2), Array(0, 1, 2))
    val got = localFrequentPatterns(db, 0.1, 2)
    assert(got.forall(_.length <= 2))
    assert(got.contains(Vector(0, 1)))
    assert(!got.contains(Vector(0, 1, 2)))
  }

  test("localFrequentPatterns of an empty database is empty") {
    assert(localFrequentPatterns(IndexedSeq.empty, 0.0, 6).isEmpty)
  }

  test("localFrequentPatterns handles duplicate transactions (multi-set)") {
    val db = IndexedSeq(Array(3), Array(3), Array(3), Array(4))
    assert(localFrequentPatterns(db, 0.7, 6) == Vector(Vector(3)))
  }

  test("localFrequentPatterns matches brute force on random DBs (30 cases)") {
    val rnd = new Random(24)
    for (_ <- 0 until 30) {
      val db = IndexedSeq.fill(1 + rnd.nextInt(6))(
        Array.fill(1 + rnd.nextInt(4))(rnd.nextInt(5)).distinct.sorted)
      val eps = rnd.nextInt(5) / 10.0
      val items = db.flatten.distinct.sorted
      def freq(p: Vector[Int]): Double =
        db.count(t => p.forall(t.contains)).toDouble / db.length
      val expected = (1 to math.min(items.length, 6)).flatMap(k =>
        items.toVector.combinations(k).filter(p => freq(p) > eps)).toSet
      val got = localFrequentPatterns(db, eps, 6).toSet
      assert(got == expected, s"db=${db.map(_.toList)} eps=$eps")
    }
  }

  test("localFrequentPatterns output is canonical and distinct") {
    val rnd = new Random(25)
    val db = IndexedSeq.fill(8)(Array.fill(4)(rnd.nextInt(6)).distinct.sorted)
    val got = localFrequentPatterns(db, 0.1, 6)
    assert(got.forall(p => p == p.distinct.sorted))
    assert(got.distinct == got)
  }
}
