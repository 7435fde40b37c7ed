package repro.core

import repro.{SparkSpec, TestNets}
import repro.netgen.GenNet

import scala.util.Random

/** The paper's structural theorems checked on concrete instances, including
  * the #P-hardness reduction of Theorem 3.8.
  */
class TheorySuite extends SparkSpec {

  /** The reduction network of Appendix A.1: a triangle whose three vertices
    * carry identical copies of one transaction database d. The number of
    * theme communities then equals the number of patterns p of d with
    * f(p) > alpha.
    */
  private def reductionNet(db: Vector[Vector[Int]]): GenNet =
    GenNet(3, Vector((0, 1), (0, 2), (1, 2)), Vector.fill(3)(db))

  private val d = Vector(Vector(0, 1), Vector(0), Vector(1, 2), Vector(0, 1, 2))

  private def fpCount(db: Vector[Vector[Int]], alpha: Double): Int = {
    val items = db.flatten.distinct.sorted
    (1 to items.length).flatMap(k => items.combinations(k)).count { p =>
      db.count(t => p.forall(t.contains)).toDouble / db.length > alpha
    }
  }

  test("Theorem 3.8 reduction: #theme communities = #frequent patterns (alpha sweep)") {
    val net = reductionNet(d).compact
    for (alpha <- Seq(0.0, 0.3, 0.5, 0.8)) {
      val r = TCFA.run(spark, net, alpha, maxLen = 3)
      assert(r.communities.size == fpCount(d, alpha), s"alpha=$alpha")
    }
  }

  test("Theorem 3.8 reduction: each theme community is the full triangle") {
    val net = reductionNet(d).compact
    val r = TCFA.run(spark, net, 0.0, maxLen = 3)
    assert(r.communities.forall(_._2 == Set(0, 1, 2)))
  }

  test("Theorem 5.1 (graph anti-monotonicity) via direct MPTD on random networks") {
    val rnd = new Random(61)
    for (_ <- 0 until 10) {
      val g = TestNets.randomNet(rnd)
      val c = g.compact
      val items = c.items
      if (items.length >= 2) {
        val p1 = Vector(items(rnd.nextInt(items.length)))
        val extra = items(rnd.nextInt(items.length))
        val p2 = Pattern(p1 :+ extra)
        val alpha = rnd.nextInt(3) * 0.2
        val f1: Int => Double = c.freq(_, p1)
        val f2: Int => Double = c.freq(_, p2)
        val t1 = LocalTruss.mptd(LocalTruss.themeInduce(g.edges, f1), f1, alpha)
        val t2 = LocalTruss.mptd(LocalTruss.themeInduce(g.edges, f2), f2, alpha)
        assert(t2.edges.toSet.subsetOf(t1.edges.toSet), s"p1=$p1 p2=$p2 alpha=$alpha")
      }
    }
  }

  test("Proposition 5.2 via direct MPTD: empty sub-pattern truss forces empty super-pattern truss") {
    val rnd = new Random(62)
    for (_ <- 0 until 10) {
      val g = TestNets.randomNet(rnd)
      val c = g.compact
      val items = c.items
      if (items.length >= 2) {
        val p1 = Vector(items(0))
        val p2 = Pattern(Vector(items(0), items(items.length - 1)))
        val alpha = 0.3
        val f1: Int => Double = c.freq(_, p1)
        val f2: Int => Double = c.freq(_, p2)
        val t1 = LocalTruss.mptd(LocalTruss.themeInduce(g.edges, f1), f1, alpha)
        val t2 = LocalTruss.mptd(LocalTruss.themeInduce(g.edges, f2), f2, alpha)
        if (t1.isEmpty) assert(t2.isEmpty)
        if (!t2.isEmpty) assert(!t1.isEmpty)
      }
    }
  }

  test("frequency anti-monotonicity: f_i(p1) >= f_i(p2) for p1 ⊆ p2 (compact impl)") {
    val rnd = new Random(63)
    for (_ <- 0 until 10) {
      val g = TestNets.randomNet(rnd)
      val c = g.compact
      val items = c.items
      val p2 = Pattern(Vector.fill(2 + rnd.nextInt(2))(items(rnd.nextInt(items.length))))
      for (sub <- Pattern.subPatternsDropOne(p2); v <- 0 until c.n)
        assert(c.freq(v, sub) >= c.freq(v, p2))
    }
  }

  test("pattern truss with unit frequencies and connectedness implies (k-1)-core") {
    // K5: pattern truss at alpha = 2 (k = 5); every vertex degree >= 4 = k-1.
    val g = TestNets.k5AllOnes
    val c = g.compact
    val f: Int => Double = c.freq(_, Vector(0))
    val t = LocalTruss.mptd(g.edges, f, 2.0)
    val degs = t.edges.flatMap(e => Seq(e._1, e._2)).groupBy(identity).view.mapValues(_.size)
    assert(degs.values.forall(_ >= 4))
  }
}
