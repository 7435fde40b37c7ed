package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

/** Algorithm 1 (MPTD), the Theorem 6.1 decomposition, and theme-community
  * extraction, on hand-built graphs plus randomized cases verified against
  * brute-force enumeration of all pattern trusses. Cohesion values are
  * checked where the kernel returns them: as decomposition thresholds.
  */
class LocalTrussSuite extends AnyFunSuite {
  import LocalTruss._

  private val one: Int => Double = _ => 1.0

  /** Edge cohesion of every edge computed from scratch within `sub`. */
  private def ecoWithin(sub: Seq[(Int, Int)], f: Int => Double): Map[Long, Double] = {
    val adj = sub.flatMap { case (u, v) => Seq(u -> v, v -> u) }
      .groupBy(_._1).view.mapValues(_.map(_._2).toSet).toMap
    sub.map { case (u, v) =>
      val common = adj.getOrElse(u, Set.empty) intersect adj.getOrElse(v, Set.empty)
      ekey(u, v) -> common.toSeq.map(w => math.min(math.min(f(u), f(v)), f(w))).sum
    }.toMap
  }

  /** The thresholds of `d` equal `expected` within 1e-12. */
  private def assertThresholds(d: Decomposition, expected: Double*): Unit =
    assert(d.thresholds.length == expected.length &&
             d.thresholds.indices.forall(k => math.abs(d.thresholds(k) - expected(k)) < 1e-12),
           s"thresholds ${d.thresholds.toSeq} != $expected")

  private def isPatternTruss(sub: Seq[(Int, Int)], f: Int => Double, alpha: Double): Boolean =
    ecoWithin(sub, f).values.forall(_ > alpha)

  /** Union of ALL pattern trusses = maximal pattern truss, by 2^|E| enumeration. */
  private def bruteMaximal(edges: Vector[(Int, Int)], f: Int => Double, alpha: Double): Set[(Int, Int)] = {
    require(edges.length <= 12)
    var acc = Set.empty[(Int, Int)]
    for (mask <- 1 until (1 << edges.length)) {
      val sub = edges.indices.collect { case i if (mask & (1 << i)) != 0 => edges(i) }
      if (isPatternTruss(sub, f, alpha)) acc ++= sub
    }
    acc
  }

  test("ekey/dekey round-trip and canonical orientation") {
    assert(dekey(ekey(3, 7)) == ((3, 7)))
    assert(ekey(7, 3) == ekey(3, 7))
    assert(dekey(ekey(100000, 2)) == ((2, 100000)))
  }

  test("themeInduce drops edges with a zero-frequency endpoint") {
    val f = Map(0 -> 1.0, 1 -> 0.5, 2 -> 0.0).withDefaultValue(0.0)
    val induced = themeInduce(Seq((0, 1), (1, 2), (0, 2)), f)
    assert(induced == Vector((0, 1)))
  }

  test("themeInduce canonicalises edge orientation") {
    val induced = themeInduce(Seq((5, 1)), _ => 1.0)
    assert(induced == Vector((1, 5)))
  }

  test("triangle, all frequencies 1: eco = 1 on every edge") {
    val t = mptd(Seq((0, 1), (1, 2), (0, 2)), one, 0.5)
    assert(t.edges.toSet == Set((0, 1), (0, 2), (1, 2)))
    assertThresholds(decompose(t.edges, one), 1.0)
  }

  test("triangle, all frequencies 1: empty at alpha = 1 (strict threshold)") {
    assert(mptd(Seq((0, 1), (1, 2), (0, 2)), one, 1.0).isEmpty)
  }

  test("single edge (no triangle) has cohesion 0 and never survives") {
    assert(mptd(Seq((0, 1)), one, 0.0).isEmpty)
  }

  test("K5 with all frequencies 1 is the 5-truss: eco = 3 per edge") {
    val edges = (for (i <- 0 until 5; j <- (i + 1) until 5) yield (i, j)).toVector
    val t = mptd(edges, one, 2.0) // alpha = k - 3 for k = 5
    assert(t.nEdges == 10)
    assertThresholds(decompose(edges, one), 3.0)
    assert(mptd(edges, one, 3.0).isEmpty)
  }

  test("pattern truss generalises k-truss: alpha = k-3 with unit frequencies") {
    // K4 plus a pendant triangle: 4-truss = the K4 (alpha = 1).
    val k4 = Vector((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    val edges = k4 ++ Vector((3, 4), (3, 5), (4, 5))
    val t = mptd(edges, one, 1.0)
    assert(t.edges.toSet == k4.toSet)
  }

  test("cascading removal: bowtie of two triangles sharing an edge") {
    // Edges of triangle A {0,1,2} and B {1,2,3}; shared edge (1,2) has eco 2.
    val edges = Vector((0, 1), (0, 2), (1, 2), (1, 3), (2, 3))
    assert(mptd(edges, one, 0.0).nEdges == 5)
    // alpha = 1: outer edges (eco 1) go first, which starves (1,2) -> empty.
    assert(mptd(edges, one, 1.0).isEmpty)
    // So the decomposition is one group at 1.0 holding all five edges.
    val d = decompose(edges, one)
    assertThresholds(d, 1.0)
    assert(d.nodes.head._2 == edges)
  }

  test("min-frequency vertex caps the cohesion of its triangles") {
    val f = Map(0 -> 1.0, 1 -> 0.5, 2 -> 0.2).withDefaultValue(0.0)
    val t = mptd(Seq((0, 1), (1, 2), (0, 2)), f, 0.1)
    assert(t.nEdges == 3)
    assertThresholds(decompose(Seq((0, 1), (1, 2), (0, 2)), f), 0.2)
    assert(mptd(Seq((0, 1), (1, 2), (0, 2)), f, 0.2).isEmpty)
  }

  test("zero-frequency vertex contributes nothing even inside a clique") {
    val f = Map(0 -> 1.0, 1 -> 1.0, 2 -> 1.0, 3 -> 0.0).withDefaultValue(0.0)
    val k4 = Vector((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    val t = mptd(k4, f, 0.0)
    // Theme induction drops v3's edges; remaining triangle {0,1,2} survives.
    assert(t.vertices == Set(0, 1, 2))
  }

  test("mptd equals brute-force union of all pattern trusses (40 random graphs)") {
    val rnd = new Random(7)
    var checked = 0
    while (checked < 40) {
      val n = 5 + rnd.nextInt(2)
      val edges = (for (i <- 0 until n; j <- (i + 1) until n if rnd.nextDouble() < 0.5)
        yield (i, j)).toVector
      if (edges.length <= 12 && edges.nonEmpty) {
        val fArr = Array.fill(n)(rnd.nextInt(11) / 10.0)
        val f: Int => Double = fArr(_)
        val alpha = rnd.nextInt(4) * 0.25
        val got = mptd(edges, f, alpha).edges.toSet
        val expected = bruteMaximal(edges, f, alpha)
        assert(got == expected, s"n=$n edges=$edges f=${fArr.toList} alpha=$alpha")
        checked += 1
      }
    }
  }

  test("mptd is idempotent: re-running on its own output is a fixed point") {
    val rnd = new Random(8)
    for (_ <- 0 until 20) {
      val g = repro.TestNets.randomNet(rnd)
      val c = g.compact
      val f: Int => Double = c.freq(_, Vector(0))
      val t = mptd(themeInduce(g.edges, f), f, 0.1)
      assert(mptd(t.edges, f, 0.1).edges == t.edges)
    }
  }

  test("each threshold is the least from-scratch cohesion of the edges left") {
    val rnd = new Random(9)
    for (_ <- 0 until 20) {
      val n = 8
      val edges = (for (i <- 0 until n; j <- (i + 1) until n if rnd.nextDouble() < 0.5)
        yield (i, j)).toVector
      val fArr = Array.fill(n)(rnd.nextInt(11) / 10.0)
      var left = mptd(edges, fArr(_), 0.0).edges
      for ((beta, removed) <- decompose(edges, fArr(_)).nodes) {
        assert(math.abs(beta - ecoWithin(left, fArr(_)).values.min) < 1e-9)
        left = left.filterNot(removed.toSet)
      }
      assert(left.isEmpty)
    }
  }

  // ----------------------------------------------------------- decomposition

  test("decompose: thresholds strictly ascending") {
    val rnd = new Random(10)
    for (_ <- 0 until 20) {
      val g = repro.TestNets.randomNet(rnd)
      val f = repro.TestNets.randomFreqs(rnd, g.n)
      val d = decompose(g.edges, f)
      val alphas = d.nodes.map(_._1)
      assert(alphas == alphas.sorted)
      assert(alphas.distinct == alphas)
    }
  }

  test("decompose: removed sets are disjoint and union to C*(0)") {
    val rnd = new Random(11)
    for (_ <- 0 until 20) {
      val g = repro.TestNets.randomNet(rnd)
      val f = repro.TestNets.randomFreqs(rnd, g.n)
      val d = decompose(g.edges, f)
      val all = d.nodes.flatMap(_._2)
      assert(all.distinct.length == all.length)
      assert(all.toSet == mptd(g.edges, f, 0.0).edges.toSet)
    }
  }

  test("Equation 1: trussAt(alpha) equals direct MPTD at alpha (random alphas)") {
    val rnd = new Random(12)
    for (_ <- 0 until 20) {
      val g = repro.TestNets.randomNet(rnd)
      val f = repro.TestNets.randomFreqs(rnd, g.n)
      val d = decompose(g.edges, f)
      for (alpha <- Seq(0.0, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0)) {
        assert(d.trussAt(alpha).toSet == mptd(g.edges, f, alpha).edges.toSet,
               s"alpha=$alpha")
      }
    }
  }

  test("trussAt at exact stored thresholds honours the strict inequality") {
    val rnd = new Random(13)
    for (_ <- 0 until 10) {
      val g = repro.TestNets.randomNet(rnd)
      val f = repro.TestNets.randomFreqs(rnd, g.n)
      val d = decompose(g.edges, f)
      for ((ak, _) <- d.nodes)
        assert(d.trussAt(ak).toSet == mptd(g.edges, f, ak).edges.toSet)
    }
  }

  test("maxAlpha is the nontrivial upper bound of alpha") {
    val d = decompose(Vector((0, 1), (1, 2), (0, 2)), one)
    assert(d.maxAlpha == 1.0)
    assert(d.trussAt(d.maxAlpha).isEmpty)
    assert(d.trussAt(d.maxAlpha - 1e-6).nonEmpty)
  }

  test("Theorem 6.1: raising alpha past the min cohesion strictly shrinks the truss") {
    val rnd = new Random(14)
    var checked = 0
    while (checked < 15) {
      val g = repro.TestNets.randomNet(rnd)
      val f = repro.TestNets.randomFreqs(rnd, g.n)
      val t1 = mptd(g.edges, f, 0.0)
      if (!t1.isEmpty) {
        val beta = ecoWithin(t1.edges, f).values.min
        val t2 = mptd(g.edges, f, beta)
        assert(t2.edges.toSet.subsetOf(t1.edges.toSet))
        assert(t2.nEdges < t1.nEdges)
        checked += 1
      }
    }
  }

  test("compact Decomposition: suffix lookup equals the Equation 1 filter over its groups") {
    val decomposition = for {
      seed <- Gen.choose(0L, Long.MaxValue)
      maxN <- Gen.choose(4, 14)
    } yield {
      val rnd = new Random(seed)
      val g = repro.TestNets.randomNet(rnd, maxN)
      decompose(g.edges, repro.TestNets.randomFreqs(rnd, g.n))
    }
    def reference(d: Decomposition, alpha: Double): Vector[(Int, Int)] =
      d.nodes.filter(_._1 > alpha + Eps).flatMap(_._2)
    val prop = Prop.forAll(decomposition, Gen.listOfN(4, Gen.choose(0.0, 3.0))) { (d, randomAlphas) =>
      val ths = d.nodes.map(_._1)
      val alphas = randomAlphas ++ ths.flatMap(a => Seq(a, a - 1e-12, a + 1e-12, a - Eps, a + Eps)) :+ 0.0
      alphas.forall { a =>
        val want = reference(d, a)
        d.trussAt(a) == want && d.keys.drop(d.suffixFrom(a)).toVector.map(dekey) == want &&
          (d.maxAlpha > a + Eps) == want.nonEmpty
      } &&
        d.thresholds.toVector == ths && ths == ths.sorted && ths.distinct == ths &&
        d.maxAlpha == (if (ths.isEmpty) 0.0 else ths.last) &&
        d.nEdgesTotal == d.nodes.map(_._2.length).sum && d.isEmpty == ths.isEmpty &&
        d.nodes.forall { case (_, es) => es == es.sorted && es.forall(e => e._1 < e._2) }
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(res.passed, res.status)
    val e = Decomposition.empty
    assert(e.isEmpty && e.nEdgesTotal == 0 && e.maxAlpha == 0.0 && e.nodes.isEmpty)
    assert(e.trussAt(0.0).isEmpty && e.suffixFrom(0.0) == 0)
  }

  test("decompose of an empty/triangle-free graph is empty") {
    assert(decompose(Vector.empty[(Int, Int)], one).isEmpty)
    assert(decompose(Vector((0, 1), (1, 2)), one).isEmpty)
  }

  test("edge adapters ignore orientation, duplicates and self-loops: same result as the key kernel") {
    val graph = for {
      seed <- Gen.choose(0L, Long.MaxValue)
      maxN <- Gen.choose(4, 14)
    } yield {
      val rnd = new Random(seed)
      val g = repro.TestNets.randomNet(rnd, maxN)
      val f = Array.fill(g.n)(rnd.nextInt(11) / 10.0)
      // The same edges reversed at random, some twice, plus self-loops, shuffled.
      val messy = rnd.shuffle(
        g.edges.map { case (u, v) => if (rnd.nextBoolean()) (v, u) else (u, v) } ++
          g.edges.filter(_ => rnd.nextInt(3) == 0) ++
          Vector.fill(rnd.nextInt(4))(rnd.nextInt(g.n)).map(v => (v, v)))
      (edgeKeys(g.edges), messy, f)
    }
    def same(a: Decomposition, b: Decomposition): Boolean =
      a.thresholds.sameElements(b.thresholds) && a.keys.sameElements(b.keys) && a.offsets.sameElements(b.offsets)
    val prop = Prop.forAll(graph, Gen.choose(0.0, 2.0)) { case ((keys, messy, fArr), alpha) =>
      val f: Int => Double = fArr(_)
      Seq(0.0, alpha).forall(a => mptd(messy, f, a) == mptd(keys, f, a)) && same(decompose(messy, f), decompose(keys, f))
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(res.passed, res.status)
  }

  // --------------------------------------------------------------- workspace

  private def sameDecomposition(a: Decomposition, b: Decomposition): Boolean =
    java.util.Arrays.equals(a.thresholds, b.thresholds) && java.util.Arrays.equals(a.keys, b.keys) &&
      java.util.Arrays.equals(a.offsets, b.offsets)

  test("one workspace reused across calls gives bit-equal results to a fresh workspace") {
    // Keys of a random graph on `n` vertices numbered from `shift`.
    def graphKeys(rnd: Random, n: Int, density: Double, shift: Int): Array[Long] =
      edgeKeys(for (i <- 0 until n; j <- (i + 1) until n if rnd.nextDouble() < density) yield (i + shift, j + shift))
    val prop = Prop.forAll(Gen.choose(0L, Long.MaxValue)) { seed =>
      val rnd = new Random(seed)
      val ws = new Workspace
      // The first network is the largest, so later ones run in grown arrays
      // that hold stale entries; their ids overlap it (shift < 40) or not.
      val sets = graphKeys(rnd, 40, 0.4, 0) +: Vector.fill(20) {
        if (rnd.nextInt(5) == 0) Array.emptyLongArray
        else graphKeys(rnd, 4 + rnd.nextInt(12), 0.3 + 0.5 * rnd.nextDouble(), rnd.nextInt(60))
      }
      sets.forall { keys =>
        val fArr = Array.fill(80)(if (rnd.nextInt(5) == 0) 0.0 else rnd.nextInt(11) / 10.0)
        val f: Int => Double = if (rnd.nextInt(6) == 0) _ => 0.0 else fArr(_)
        val alpha = rnd.nextInt(4) * 0.25
        // The kernel reads only the first n keys of the intersection buffer.
        val n = ws.intersect(keys, 0, keys.length, keys, 0, keys.length)
        n == keys.length &&
          mptd(ws.intersection, n, f, alpha, ws) == mptd(keys, f, alpha) &&
          sameDecomposition(decompose(ws.intersection, n, f, ws), decompose(keys, f)) &&
          mptd(keys, keys.length, f, 0.0, ws) == mptd(keys, f, 0.0)
      }
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(60), prop)
    assert(res.passed, res.status)
  }

  test("kernel rejects keys with a negative vertex id") {
    intercept[IllegalArgumentException](mptd(Array(ekey(-1, 2), ekey(0, 2)).sorted, one, 0.0))
    intercept[IllegalArgumentException](decompose(Array(ekey(-3, -2)), one))
  }

  test("buffered intersection equals Set intersection: empty, disjoint, prefix and equal slices") {
    val sortedKeys = Gen.listOf(Gen.choose(-40L, 40L)).map(_.distinct.sorted.toArray)
    val pair = Gen.oneOf(
      Gen.zip(sortedKeys, sortedKeys),
      sortedKeys.map(a => (a, a)),
      sortedKeys.flatMap(a => Gen.choose(0, a.length).map(k => (a, a.take(k)))),
      sortedKeys.map(a => (a, a.map(_ + 100))),
      sortedKeys.map(a => (a, Array.emptyLongArray)))
    val ws = new Workspace // shared by every case: the buffer grows and shrinks
    val prop = Prop.forAll(pair, Gen.choose(0, 4), Gen.choose(0, 4)) { case ((a0, b0), da, db) =>
      val (a, b) = if (da % 2 == 0) (a0, b0) else (b0, a0)
      // Slices that drop up to `da` keys at the front and `db` at the back.
      val aFrom = math.min(da, a.length); val aUntil = math.max(aFrom, a.length - db)
      val bFrom = math.min(db, b.length); val bUntil = math.max(bFrom, b.length - da)
      val want = (a.slice(aFrom, aUntil).toSet & b.slice(bFrom, bUntil).toSet).toVector.sorted
      val n = ws.intersect(a, aFrom, aUntil, b, bFrom, bUntil)
      ws.intersection.take(n).toVector == want && intersectKeys(a, b).toVector == (a.toSet & b.toSet).toVector.sorted
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(500), prop)
    assert(res.passed, res.status)
  }

  // ------------------------------------------------------ connected components

  test("connectedComponents: single triangle is one community") {
    assert(connectedComponents(Seq((0, 1), (1, 2), (0, 2))) == Vector(Set(0, 1, 2)))
  }

  test("connectedComponents: a maximal pattern truss need not be connected") {
    // Two disjoint triangles — one maximal pattern truss, two theme communities.
    val edges = Vector((0, 1), (1, 2), (0, 2), (5, 6), (6, 7), (5, 7))
    val t = mptd(edges, one, 0.5)
    assert(t.nEdges == 6)
    val cc = connectedComponents(t.edges)
    assert(cc.toSet == Set(Set(0, 1, 2), Set(5, 6, 7)))
  }

  test("connectedComponents: ordered largest first") {
    val cc = connectedComponents(Seq((0, 1), (2, 3), (3, 4), (4, 2), (2, 5)))
    assert(cc.head == Set(2, 3, 4, 5))
  }

  test("connectedComponents of empty edge set is empty") {
    assert(connectedComponents(Nil).isEmpty)
  }

  test("connectedComponents equals breadth-first search on random edge sets, self-loops included") {
    val edge = Gen.zip(Gen.choose(-3, 25), Gen.choose(-3, 25))
    val prop = Prop.forAll(Gen.listOf(edge), Gen.choose(0, 5)) { (edges, from) =>
      val keys = edges.map { case (u, v) => ekey(u, v) }.toArray
      val start = math.min(from, keys.length)
      connectedComponents(edges) == repro.TestNets.bfsComponents(edges) &&
        components(keys, start, keys.length) == repro.TestNets.bfsComponents(edges.drop(start))
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(res.passed, res.status)
  }
}
