package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.netgen.{GenNet, NetGen}
import repro.{NetworkSql, Oracle, TestNets}

import scala.util.Random

/** Distributed-style MPTD, the round-synchronous fixed point of Algorithm 1
  * (every edge with cohesion ≤ α deleted at once, round after round, until a
  * round deletes none), run as SQL on DuckDB (`NetworkSql.mptd`), must equal
  * the sequential queue-based peel `LocalTruss.mptd` edge for edge. It
  * reaches the same maximal pattern truss: an edge of C*_p(α) has cohesion
  * > α in every supergraph of C*_p(α), so no round drops it, and the fixed
  * point is a pattern truss, so it lies inside the maximal one.
  *
  * The kernel's cohesion arithmetic is checked through the output that
  * carries cohesion values: the Theorem 6.1 thresholds of
  * `LocalTruss.decompose` must equal those of the SQL peel
  * (`NetworkSql.decompose`) within 1e-9, with equal edge groups.
  */
class DistributedMPTDSuite extends AnyFunSuite {

  private val bowtie = Seq((0, 1), (0, 2), (1, 2), (1, 3), (2, 3))

  private def rows(t: Truss): Seq[Seq[Any]] = t.edges.map { case (u, v) => Seq(u, v) }

  /** (src, dst, …) rows as (src, dst) rows. */
  private def edgeRows(sql: Seq[Seq[Any]]): Seq[Seq[Any]] = sql.map(_.take(2))

  /** The SQL peel of `edges` at α, its edges checked against the kernel's;
    * returns the SQL peel as a map from edge to cohesion.
    */
  private def peel(edges: Seq[(Int, Int)], f: Map[Int, Double], alpha: Double): Map[(Int, Int), Double] = {
    val sql = Oracle.withDb(NetworkSql.edgeTables(edges, f): _*)(NetworkSql.mptd(_, alpha))
    Oracle.assertSameRows(rows(LocalTruss.mptd(edges, f, alpha)), edgeRows(sql), s"alpha=$alpha")
    NetworkSql.cohesions(sql)
  }

  /** On every pattern of `ps`, the SQL pipeline from the transactions
    * (frequencies, theme network, peel) against `themeKeys` and the kernel;
    * returns how many of the trusses are non-empty.
    */
  private def assertSameTrusses(g: GenNet, ps: Seq[Vector[Int]], alpha: Double): Int = {
    val c = g.compact
    NetworkSql.withNetwork(g) { db =>
      ps.count { p =>
        val keys = c.themeKeys(p.toArray)
        val t = LocalTruss.mptd(keys, c.freq(_, p), alpha)
        Oracle.assertSameRows(rows(t), edgeRows(NetworkSql.themeMptd(db, p, alpha)), s"p=$p alpha=$alpha")
        !t.isEmpty
      }
    }
  }

  /** On every pattern of `ps`, the Theorem 6.1 decomposition of G_p: SQL
    * from the transactions against `themeKeys` and the kernel; returns how
    * many of the decompositions are non-empty.
    */
  private def assertSameDecompositions(g: GenNet, ps: Seq[Vector[Int]]): Int = {
    val c = g.compact
    NetworkSql.withNetwork(g) { db =>
      ps.count { p =>
        val d = LocalTruss.decompose(c.themeKeys(p.toArray), c.freq(_, p))
        NetworkSql.themeMptd(db, p, 0.0)
        Oracle.assertSameRows(NetworkSql.decompositionRows(d), NetworkSql.decompose(db), s"p=$p")
        !d.isEmpty
      }
    }
  }

  test("triangle with unit frequencies survives alpha = 0.5") {
    val eco = peel(Seq((0, 1), (0, 2), (1, 2)), (0 to 2).map(_ -> 1.0).toMap, 0.5)
    assert(eco.keySet == Set((0, 1), (0, 2), (1, 2)))
    assert(eco.values.forall(c => math.abs(c - 1.0) < 1e-12))
  }

  test("triangle with unit frequencies dies at alpha = 1 (strict)") {
    assert(peel(Seq((0, 1), (0, 2), (1, 2)), (0 to 2).map(_ -> 1.0).toMap, 1.0).isEmpty)
  }

  test("cascading removal: bowtie dies entirely at alpha = 1") {
    assert(peel(bowtie, (0 to 3).map(_ -> 1.0).toMap, 1.0).isEmpty)
  }

  test("bowtie at alpha = 0: all five edges survive, shared edge eco 2") {
    val eco = peel(bowtie, (0 to 3).map(_ -> 1.0).toMap, 0.0)
    assert(eco.size == 5)
    assert(math.abs(eco((1, 2)) - 2.0) < 1e-12)
  }

  test("agrees with Algorithm 1 on random networks and real pattern frequencies") {
    val rnd = new Random(41)
    var nonEmpty = 0
    for (_ <- 0 until 8) {
      val g = TestNets.randomNet(rnd)
      val ps = Seq(Vector(rnd.nextInt(4)), Vector(rnd.nextInt(3), 3 + rnd.nextInt(3)))
      for (alpha <- Seq(0.0, 0.2, 0.4)) nonEmpty += assertSameTrusses(g, ps, alpha)
    }
    assert(nonEmpty > 0)
  }

  test("Theorem 6.1 decomposition agrees with SQL on random networks") {
    val rnd = new Random(41)
    var nonEmpty = 0
    for (_ <- 0 until 8) {
      val g = TestNets.randomNet(rnd)
      nonEmpty += assertSameDecompositions(g, Seq(Vector(rnd.nextInt(4)), Vector(rnd.nextInt(3), 3 + rnd.nextInt(3))))
    }
    assert(nonEmpty > 0)
  }

  test("final cohesions agree with Algorithm 1 cohesions") {
    // The thresholds are the cohesions the peeling leaves: each is the least
    // cohesion of the truss left before its step.
    val sample = NetGen.bfsSample(TestNets.smallPlanted(), 60)
    val c = sample.compact
    assert(assertSameDecompositions(sample, c.items.toSeq.map(Vector(_))) > 0)
  }

  test("empty theme network yields empty truss") {
    assert(peel(Seq.empty, Map(0 -> 1.0), 0.0).isEmpty)
  }
}
