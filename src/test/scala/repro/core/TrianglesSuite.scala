package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.{NetworkSql, Oracle, TestNets}

import scala.util.Random

/** Triangles and edge cohesion (Definition 3.1). The SQL definitions
  * (`NetworkSql.triangles`, `NetworkSql.edgeCohesion`) are checked against
  * hand counts and a from-scratch computation, and the kernel against them
  * through the output that carries cohesion values: the Theorem 6.1
  * decomposition `LocalTruss.decompose` must equal the SQL one
  * (`NetworkSql.decompose`, built on `edgeCohesion`), thresholds within
  * 1e-9 and edge groups equal. With unit frequencies a cohesion is the
  * edge's triangle count.
  */
class TrianglesSuite extends AnyFunSuite {

  private val bowtie = Seq((0, 1), (0, 2), (1, 2), (1, 3), (2, 3))

  private def sqlTriangles(edges: Seq[(Int, Int)]): Set[(Int, Int, Int)] =
    Oracle.query(NetworkSql.triangles, NetworkSql.edgeTables(edges, Nil): _*)
      .map(r => (NetworkSql.int(r(0)), NetworkSql.int(r(1)), NetworkSql.int(r(2)))).toSet

  private def sqlCohesion(edges: Seq[(Int, Int)], f: Map[Int, Double]): Map[(Int, Int), Double] =
    NetworkSql.cohesions(Oracle.query(NetworkSql.edgeCohesion, NetworkSql.edgeTables(edges, f): _*))

  private def unit(edges: Seq[(Int, Int)]): Map[Int, Double] =
    edges.flatMap(e => Seq(e._1 -> 1.0, e._2 -> 1.0)).toMap

  /** The kernel's decomposition of `edges` equals the SQL one; returns it. */
  private def assertKernelAgrees(edges: Seq[(Int, Int)], f: Map[Int, Double]): Decomposition = {
    val d = LocalTruss.decompose(edges, f)
    Oracle.assertSameRows(NetworkSql.decompositionRows(d),
                          Oracle.withDb(NetworkSql.edgeTables(edges, f): _*)(NetworkSql.decompose))
    d
  }

  private def assertTriangles(edges: Seq[(Int, Int)], expected: Set[(Int, Int, Int)]): Unit = {
    assert(sqlTriangles(edges) == expected)
    assertKernelAgrees(edges, unit(edges))
  }

  private def close(a: Map[(Int, Int), Double], b: Map[(Int, Int), Double]): Boolean =
    a.keySet == b.keySet && a.forall { case (e, x) => math.abs(x - b(e)) < 1e-12 }

  test("triangles: single triangle") {
    assertTriangles(Seq((0, 1), (0, 2), (1, 2)), Set((0, 1, 2)))
  }

  test("triangles: K4 has four") {
    val k4 = for (i <- 0 until 4; j <- (i + 1) until 4) yield (i, j)
    assertTriangles(k4, Set((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))
  }

  test("triangles: path graph has none") {
    assertTriangles(Seq((0, 1), (1, 2), (2, 3)), Set.empty)
  }

  test("triangles: bowtie has two") {
    assertTriangles(bowtie, Set((0, 1, 2), (1, 2, 3)))
  }

  test("triangles match DuckDB on a random graph") {
    val rnd = new Random(31)
    val counts = for (_ <- 0 until 5) yield {
      val g = TestNets.randomNet(rnd)
      val es = g.edges.toSet
      val brute = for {
        a <- 0 until g.n; b <- (a + 1) until g.n if es((a, b)); c <- (b + 1) until g.n
        if es((a, c)) && es((b, c))
      } yield (a, b, c)
      assertTriangles(g.edges, brute.toSet)
      brute.length
    }
    assert(counts.sum > 0)
  }

  test("edgeCohesion with unit frequencies counts triangles per edge") {
    val expected = Map((0, 1) -> 1.0, (0, 2) -> 1.0, (1, 2) -> 2.0, (1, 3) -> 1.0, (2, 3) -> 1.0)
    assert(sqlCohesion(bowtie, unit(bowtie)) == expected)
    assertKernelAgrees(bowtie, unit(bowtie))
  }

  test("edgeCohesion: triangle-free edges present with cohesion 0") {
    val es = Seq((0, 1), (1, 2), (0, 2), (2, 3))
    val eco = sqlCohesion(es, unit(es))
    assert(eco((2, 3)) == 0.0)
    assert(eco.size == 4)
    // Both drop the edge from C*(0): its cohesion is not above 0.
    assertKernelAgrees(es, unit(es))
  }

  test("edgeCohesion takes the min frequency over the triangle corners") {
    val f = Map(0 -> 0.9, 1 -> 0.5, 2 -> 0.3)
    val tri = Seq((0, 1), (0, 2), (1, 2))
    val eco = sqlCohesion(tri, f)
    assert(eco.size == 3)
    assert(eco.values.forall(v => math.abs(v - 0.3) < 1e-12))
    assertKernelAgrees(tri, f)
  }

  test("edgeCohesion matches the Example 3.2 arithmetic") {
    // e12 in triangles {1,2,3} and {1,2,5}: eco = min(f1,f2,f3) + min(f1,f2,f5).
    val es = Seq((1, 2), (1, 3), (2, 3), (1, 5), (2, 5))
    val f = Map(1 -> 0.5, 2 -> 0.4, 3 -> 0.1, 5 -> 0.1)
    assert(math.abs(sqlCohesion(es, f)((1, 2)) - 0.2) < 1e-12)
    assertKernelAgrees(es, f)
  }

  test("edgeCohesion matches local from-scratch computation on random graphs") {
    val rnd = new Random(32)
    for (_ <- 0 until 3) {
      val g = TestNets.randomNet(rnd)
      val fArr = Array.fill(g.n)(rnd.nextInt(11) / 10.0)
      val adj = g.edges.flatMap { case (u, v) => Seq(u -> v, v -> u) }
        .groupBy(_._1).view.mapValues(_.map(_._2).toSet).toMap
      val scratch = g.edges.map { case (u, v) =>
        (u, v) -> (adj(u) intersect adj(v)).toSeq.map(w => Seq(fArr(u), fArr(v), fArr(w)).min).sum
      }.toMap
      val f = fArr.indices.map(i => i -> fArr(i)).toMap
      assert(close(sqlCohesion(g.edges, f), scratch))
      assertKernelAgrees(g.edges, f)
    }
  }

  test("edgeCohesion matches DuckDB end-to-end") {
    val g = TestNets.randomNet(new Random(33))
    val f = (0 until g.n).map(i => i -> ((i % 10) / 10.0 + 0.1)).toMap
    assert(!assertKernelAgrees(g.edges, f).isEmpty)
  }
}
