package repro.core

import org.scalacheck.{Gen, Prop, Test}
import repro.netgen.NetGen
import repro.{SparkSpec, TestNets}

import scala.util.Random

/** TCS / TCFA / TCFI: exactness (TCFA ≡ TCFI), the TCS accuracy trade-off,
  * the paper's anti-monotonicity properties on mined results, and recovery
  * of planted theme communities.
  */
class MinersSuite extends SparkSpec {

  private def assertSameResults(a: MiningResult, b: MiningResult): Unit = {
    assert(a.trusses.keySet == b.trusses.keySet,
      s"pattern sets differ: only-a=${a.trusses.keySet -- b.trusses.keySet} " +
        s"only-b=${b.trusses.keySet -- a.trusses.keySet}")
    for ((p, ta) <- a.trusses) assert(ta == b.trusses(p), s"edges differ for ${Pattern.key(p)}")
  }

  /** Pattern for pattern: equal edge keys, and equal counters. */
  private def assertSameRun(a: MiningResult, b: MiningResult, what: String): Unit = {
    assert(a.trusses.keySet == b.trusses.keySet, what)
    for ((p, ta) <- a.trusses)
      assert(ta.keys.sameElements(b.trusses(p).keys), s"$what: edges differ for ${Pattern.key(p)}")
    assert(a.stats.copy(timeMs = 0) == b.stats.copy(timeMs = 0), what)
  }

  /** Spark `run` against `Levelwise.serial`: the same per-prefix-class
    * worker in one plain loop, i.e. one range per level where Spark cuts
    * each level into several. So this is also local[1] against local[*].
    */
  private def assertSparkEqualsLoop(useIntersection: Boolean): Unit =
    for ((name, g) <- Seq("planted" -> TestNets.smallPlanted(), "bkLike(300)" -> NetGen.bkLike(300));
         alpha <- Seq(0.0, 0.1)) {
      val c = g.compact
      val distributed =
        if (useIntersection) TCFI.run(spark, c, alpha) else TCFA.run(spark, c, alpha)
      assertSameRun(distributed, Levelwise.serial(c, alpha, maxLen = Int.MaxValue, useIntersection), s"$name alpha=$alpha")
    }

  // ------------------------------------------------------- level-wise engine

  test("TCFI on Spark equals one plain loop over the prefix-class worker") {
    assertSparkEqualsLoop(useIntersection = true)
  }

  test("TCFA on Spark equals one plain loop over the prefix-class worker") {
    assertSparkEqualsLoop(useIntersection = false)
  }

  test("cut: contiguous ranges of positive weight cover every unit up to the last of positive weight") {
    val rnd = new Random(7)
    for (_ <- 0 until 200) {
      val w = Array.fill(rnd.nextInt(30))(if (rnd.nextInt(3) == 0) 0L else rnd.nextInt(400).toLong)
      val n = 1 + rnd.nextInt(20)
      val rs = Levelwise.cut(w, n)
      val last = w.lastIndexWhere(_ > 0)
      assert(rs.length <= n)
      assert(rs.map(_._1) == (0 +: rs.map(_._2).dropRight(1)).take(rs.length))
      assert(rs.lastOption.map(_._2).getOrElse(0) == last + 1)
      assert(rs.forall { case (a, b) => w.slice(a, b).sum > 0 })
    }
  }

  test("Truss: array-backed views equal the edge set they encode") {
    val edge = for (u <- Gen.choose(0, 15); d <- Gen.choose(1, 8)) yield LocalTruss.ekey(u, u + d)
    val truss = Gen.containerOf[Set, Long](edge)
    def fromSet(s: Set[Long]): Truss = new Truss(LocalTruss.edgeKeys(s.map(LocalTruss.dekey)))
    val prop = Prop.forAll(truss, truss) { (sa, sb) =>
      val (a, b) = (fromSet(sa), fromSet(sb))
      val edges = sa.toVector.sorted.map(LocalTruss.dekey)
      val ends = edges.flatMap(e => Seq(e._1, e._2)).toSet
      a.edges == edges && edges.forall(e => e._1 < e._2) &&
        a.vertices == ends && a.nVertices == ends.size &&
        a.nEdges == sa.size && a.isEmpty == sa.isEmpty &&
        a == fromSet(sa) && a.hashCode == fromSet(sa).hashCode && (a == b) == (sa == sb) &&
        a.intersectEdges(b) == edges.filter(e => sb.contains(LocalTruss.ekey(e._1, e._2)))
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(res.passed, res.status)
  }

  test("miners reject alpha < 0 and NaN on the driver, before any Spark job") {
    val c = TestNets.triangleNet.compact
    for (a <- Seq(-0.1, -1e-12, Double.NaN)) {
      intercept[IllegalArgumentException](TCFI.run(spark, c, a))
      intercept[IllegalArgumentException](TCFA.run(spark, c, a))
      intercept[IllegalArgumentException](TCS.run(spark, c, a, eps = 0.1))
      intercept[IllegalArgumentException](Levelwise.serial(c, a, maxLen = 6, useIntersection = true))
    }
  }

  test("miners reject maxLen < 1 and TCS rejects eps < 0 and NaN, on the driver") {
    val c = TestNets.triangleNet.compact
    for (m <- Seq(0, -1, Int.MinValue)) {
      intercept[IllegalArgumentException](TCFI.run(spark, c, 0.0, maxLen = m))
      intercept[IllegalArgumentException](TCFA.run(spark, c, 0.0, maxLen = m))
      intercept[IllegalArgumentException](TCS.run(spark, c, 0.0, eps = 0.1, maxLen = m))
      intercept[IllegalArgumentException](Levelwise.serial(c, 0.0, maxLen = m, useIntersection = true))
    }
    for (e <- Seq(-0.1, -1e-12, Double.NaN))
      intercept[IllegalArgumentException](TCS.run(spark, c, 0.0, eps = e))
    // The smallest legal values still run.
    assert(TCFI.run(spark, c, 0.0, maxLen = 1).trusses.keySet == Set(Vector(0), Vector(1)))
    assert(TCS.run(spark, c, 0.0, eps = 0.0, maxLen = 1).trusses.keySet == Set(Vector(0), Vector(1)))
  }

  // ------------------------------------------------------------ tiny network

  test("TCFA on the triangle net finds {0}, {1}, {0,1} at alpha = 0.4") {
    val c = TestNets.triangleNet.compact
    val r = TCFA.run(spark, c, 0.4)
    assert(r.trusses.keySet == Set(Vector(0), Vector(1), Vector(0, 1)))
    assert(r.trusses.values.forall(_.nEdges == 3))
  }

  test("strict threshold: eco = 0.5 does not survive alpha = 0.5") {
    val c = TestNets.triangleNet.compact
    val r = TCFA.run(spark, c, 0.5)
    assert(r.trusses.keySet == Set(Vector(0)))
  }

  test("alpha above every cohesion yields no theme communities") {
    val c = TestNets.triangleNet.compact
    assert(TCFA.run(spark, c, 5.0).trusses.isEmpty)
    assert(TCFI.run(spark, c, 5.0).trusses.isEmpty)
  }

  test("TCS with low eps equals TCFA on the triangle net") {
    val c = TestNets.triangleNet.compact
    assertSameResults(TCS.run(spark, c, 0.4, eps = 0.1), TCFA.run(spark, c, 0.4))
  }

  test("TCS with high eps loses the low-frequency pattern (trade-off)") {
    val c = TestNets.triangleNet.compact
    // f({1}) = f({0,1}) = 0.5 on every vertex: eps = 0.6 filters them out.
    val r = TCS.run(spark, c, 0.4, eps = 0.6)
    assert(r.trusses.keySet == Set(Vector(0)))
  }

  test("TCS equals brute force: every pattern above eps on some vertex, then MPTD on its theme network") {
    // Job 2 numbers the candidates across the widths and cuts them once, so
    // some case must have a range that seeds the slices of two widths.
    val ranges = spark.sparkContext.defaultParallelism * Levelwise.RangesPerCore
    var crossWidth = false
    for (g <- TestNets.sparseNets(61, 6); eps <- Seq(0.0, 0.2, 0.5); maxLen <- Seq(2, Int.MaxValue)) {
      val c = g.compact
      val what = s"n=${g.n} eps=$eps maxLen=$maxLen"
      def freq(v: Int, p: Vector[Int]): Double =
        if (g.txs(v).isEmpty) 0.0 else g.txs(v).count(t => p.forall(t.contains)).toDouble / g.txs(v).length
      val candidates = (0 until g.n).flatMap { v =>
        val items = g.txs(v).flatten.distinct.sorted
        (1 to math.min(items.length, maxLen)).flatMap(items.combinations).filter(freq(v, _) > eps)
      }.toSet
      val expected = candidates.iterator
        .map(p => p -> LocalTruss.mptd(c.themeKeys(p.toArray), c.freq(_, p), 0.0))
        .filter(!_._2.isEmpty).toMap
      val got = TCS.run(spark, c, 0.0, eps, maxLen)
      withClue(what)(assertSameResults(got, MiningResult(expected, got.stats)))
      assert(got.stats.candidates == candidates.size && got.stats.mptdCalls == candidates.size, what)
      assert(got.stats.prunedByIntersection == 0 && got.stats.truncated == candidates.exists(_.length >= maxLen), what)
      val start = candidates.groupBy(_.length).toSeq.sortBy(_._1).scanLeft(0)(_ + _._2.size)
      crossWidth ||= Levelwise.cut(Array.fill(start.last)(1L), ranges).exists { case (a, b) =>
        start.exists(s => a < s && s < b)
      }
    }
    assert(crossWidth, s"no job-2 range of $ranges spans two widths")
  }

  // ------------------------------------------------------ exactness at scale

  test("TCFA and TCFI produce identical results on the planted network (alpha sweep)") {
    val c = TestNets.smallPlanted().compact
    for (alpha <- Seq(0.0, 0.2, 0.5)) {
      assertSameResults(TCFA.run(spark, c, alpha, maxLen = 4),
                        TCFI.run(spark, c, alpha, maxLen = 4))
    }
  }

  test("TCFA and TCFI agree on random database networks") {
    val rnd = new Random(51)
    for (_ <- 0 until 3) {
      val g = TestNets.randomNet(rnd, maxN = 10)
      val c = g.compact
      assertSameResults(TCFA.run(spark, c, 0.1, maxLen = 4),
                        TCFI.run(spark, c, 0.1, maxLen = 4))
    }
  }

  test("TCS results are always a subset of the exact results, with equal trusses") {
    val c = TestNets.smallPlanted().compact
    val exact = TCFI.run(spark, c, 0.2, maxLen = 4)
    val tcs = TCS.run(spark, c, 0.2, eps = 0.2, maxLen = 4)
    assert(tcs.trusses.keySet.subsetOf(exact.trusses.keySet))
    for ((p, t) <- tcs.trusses)
      assert(t.edges.toSet == exact.trusses(p).edges.toSet, Pattern.key(p))
  }

  test("lowering eps can only grow the TCS result set") {
    val c = TestNets.smallPlanted().compact
    val loose = TCS.run(spark, c, 0.2, eps = 0.1, maxLen = 4)
    val tight = TCS.run(spark, c, 0.2, eps = 0.3, maxLen = 4)
    assert(tight.trusses.keySet.subsetOf(loose.trusses.keySet))
  }

  // ---------------------------------------------------- mined-result theory

  test("Proposition 5.2 on results: every sub-pattern of a qualified pattern is qualified") {
    val c = TestNets.smallPlanted().compact
    val r = TCFI.run(spark, c, 0.1, maxLen = 4)
    for (p <- r.trusses.keys if p.length > 1; sub <- Pattern.subPatternsDropOne(p))
      assert(r.trusses.contains(sub), s"${Pattern.key(p)} qualified but ${Pattern.key(sub)} missing")
  }

  test("Theorem 5.1 on results: trusses shrink as patterns grow") {
    val c = TestNets.smallPlanted().compact
    val r = TCFI.run(spark, c, 0.1, maxLen = 4)
    for (p <- r.trusses.keys if p.length > 1; sub <- Pattern.subPatternsDropOne(p)) {
      val big = r.trusses(sub).edges.toSet
      assert(r.trusses(p).edges.toSet.subsetOf(big))
    }
  }

  test("Proposition 5.3 on results: truss of a union lies in the intersection") {
    val c = TestNets.smallPlanted().compact
    val r = TCFI.run(spark, c, 0.1, maxLen = 4)
    for (p <- r.trusses.keys if p.length == 2) {
      val inter = r.trusses(Vector(p(0))).edges.toSet intersect r.trusses(Vector(p(1))).edges.toSet
      assert(r.trusses(p).edges.toSet.subsetOf(inter))
    }
  }

  // ----------------------------------------------------------- planted truth

  test("TCFI recovers planted favourite patterns as theme communities") {
    val g = TestNets.smallPlanted()
    val r = TCFI.run(spark, g.compact, 0.1, maxLen = 4)
    val planted = g.groundTruth.filter(_._1.length >= 2)
    val recovered = planted.count { case (p, members) =>
      r.trusses.get(p).exists(t => (t.vertices intersect members).size >= 3)
    }
    assert(recovered * 2 >= planted.size,
      s"recovered only $recovered of ${planted.size} planted patterns")
  }

  test("mined communities overlap strongly with their planted groups") {
    val g = TestNets.smallPlanted()
    val r = TCFI.run(spark, g.compact, 0.1, maxLen = 4)
    val gt = g.groundTruth.toMap
    val full = r.communities.filter { case (p, _) => gt.contains(p) && p.length >= 2 }
    assert(full.nonEmpty)
    val good = full.count { case (p, mem) => (mem intersect gt(p)).size >= mem.size / 2 }
    assert(good * 2 >= full.size)
  }

  // --------------------------------------------------------- stats/counters

  test("NP equals the number of trusses; NV/NE aggregate over trusses") {
    val c = TestNets.triangleNet.compact
    val r = TCFA.run(spark, c, 0.4)
    assert(r.np == 3)
    assert(r.nv == 9) // 3 trusses x 3 vertices each (counted per truss)
    assert(r.ne == 9)
  }

  test("the result map answers lookups, removals and updates like a plain map") {
    val r = TCFI.run(spark, TestNets.smallPlanted().compact, 0.1, maxLen = 4)
    val plain = scala.collection.immutable.HashMap.from(r.trusses)
    assert(plain.size == r.trusses.size && r.trusses == plain)
    for ((p, t) <- plain) assert(r.trusses.get(p).contains(t))
    assert(!r.trusses.contains(Vector(-1)) && !r.trusses.contains(Vector(1, 1, 1, 1, 1, 1, 1)))
    val (p, t) = plain.head
    assert(r.trusses.removed(p) == plain.removed(p))
    assert(r.trusses.updated(Vector(-1), t) == plain.updated(Vector(-1), t))
  }

  test("TCFI never runs more MPTD calls than TCFA") {
    val c = TestNets.smallPlanted().compact
    val fa = TCFA.run(spark, c, 0.1, maxLen = 4)
    val fi = TCFI.run(spark, c, 0.1, maxLen = 4)
    assert(fi.stats.mptdCalls <= fa.stats.mptdCalls)
    assert(fi.stats.mptdCalls + fi.stats.prunedByIntersection == fa.stats.mptdCalls)
  }

  test("candidate counters: examined candidates bound MPTD calls") {
    val c = TestNets.smallPlanted().compact
    val fi = TCFI.run(spark, c, 0.2, maxLen = 4)
    assert(fi.stats.mptdCalls <= fi.stats.candidates)
    assert(fi.stats.timeMs >= 0)
  }

  test("maxLen caps the pattern length in results") {
    val c = TestNets.smallPlanted().compact
    val r = TCFI.run(spark, c, 0.0, maxLen = 2)
    assert(r.trusses.keys.forall(_.length <= 2))
  }

  test("truncated is set when maxLen cuts longer patterns and clear at or above the longest") {
    val c = TestNets.smallPlanted().compact
    for (alpha <- Seq(0.0, 0.2)) {
      val full = TCFI.run(spark, c, alpha, maxLen = 64)
      val longest = full.trusses.keys.map(_.length).max
      assert(longest >= 2 && !full.stats.truncated, s"alpha=$alpha")
      for (run <- Seq[Int => MiningResult](TCFI.run(spark, c, alpha, _), TCFA.run(spark, c, alpha, _),
                                           Levelwise.serial(c, alpha, _, useIntersection = true))) {
        assert(run(longest - 1).stats.truncated, s"alpha=$alpha maxLen=${longest - 1}")
        assert(!run(longest).stats.truncated, s"alpha=$alpha maxLen=$longest")
        assert(!run(longest + 1).stats.truncated, s"alpha=$alpha maxLen=${longest + 1}")
      }
    }
    // TCS: some vertex database holds a frequent pattern of 2 items, none of 64.
    assert(TCS.run(spark, c, 0.0, 0.1, maxLen = 2).stats.truncated)
    assert(!TCS.run(spark, c, 0.0, 0.1, maxLen = 64).stats.truncated)
  }

  test("length caps are opt-in: a default run equals the uncapped run and is not truncated") {
    val c = TestNets.smallPlanted().compact
    for (alpha <- Seq(0.0, 0.2)) {
      val runs = Seq[(String, Int => MiningResult, MiningResult)](
        ("TCFI", TCFI.run(spark, c, alpha, _), TCFI.run(spark, c, alpha)),
        ("TCFA", TCFA.run(spark, c, alpha, _), TCFA.run(spark, c, alpha)),
        ("TCS", TCS.run(spark, c, alpha, 0.1, _), TCS.run(spark, c, alpha, 0.1)))
      for ((name, capped, default) <- runs) {
        assertSameRun(default, capped(Int.MaxValue), s"$name alpha=$alpha")
        assert(!default.stats.truncated, s"$name alpha=$alpha")
      }
    }
  }

  test("communities partition each truss's vertices") {
    val c = TestNets.smallPlanted().compact
    val r = TCFI.run(spark, c, 0.2, maxLen = 3)
    val byPattern = r.communities.groupBy(_._1)
    for ((p, t) <- r.trusses) {
      val comms = byPattern(p).map(_._2)
      assert(comms.map(_.size).sum == t.nVertices)
      assert(comms.reduce(_ ++ _) == t.vertices)
    }
  }
}
