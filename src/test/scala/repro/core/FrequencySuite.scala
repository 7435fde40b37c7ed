package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.Oracle.Db
import repro.netgen.GenNet
import repro.{NetworkSql, Oracle, TestNets}

import scala.util.Random

/** Pattern frequency f_v(p) (`CompactNetwork.freq`) and theme-network
  * induction (`CompactNetwork.themeKeys`) against hand-computed values and
  * against their SQL definitions on DuckDB (`NetworkSql.frequencies`,
  * `NetworkSql.themeNetwork`), row for row.
  */
class FrequencySuite extends AnyFunSuite {

  private val tiny = GenNet(3, Vector((0, 1), (1, 2)), Vector(
    Vector(Vector(0), Vector(0, 1), Vector(1, 2)), // v0
    Vector(Vector(0, 1)),                          // v1
    Vector.empty,                                  // v2: empty database
  ))
  private lazy val tinyC = tiny.compact

  private def freqMap(net: CompactNetwork, p: Vector[Int]): Map[Int, Double] =
    (0 until net.n).map(v => v -> net.freq(v, p)).toMap

  private def sqlFreqMap(db: Db, p: Vector[Int]): Map[Int, Double] = {
    NetworkSql.usePattern(db, p)
    db.query(NetworkSql.frequencies).map(r => NetworkSql.int(r(0)) -> r(1).asInstanceOf[Double]).toMap
  }

  private def sqlThemeEdges(db: Db, p: Vector[Int]): Set[(Int, Int)] = {
    NetworkSql.usePattern(db, p)
    NetworkSql.edgeSet(db.query(NetworkSql.themeNetwork))
  }

  /** The kernel's f_v(p) as (v, f) rows. */
  private def freqRows(net: CompactNetwork, p: Vector[Int]): Seq[Seq[Any]] =
    freqMap(net, p).toSeq.map { case (v, f) => Seq(v, f) }

  /** The kernel's G_p as (src, dst) rows. */
  private def themeRows(net: CompactNetwork, p: Vector[Int]): Seq[Seq[Any]] =
    net.themeKeys(p.toArray).toSeq.map(LocalTruss.dekey).map(e => Seq(e._1, e._2))

  /** p = ∅, patterns in S, and patterns with items outside S (−1, 7). */
  private val patterns = Seq(Vector.empty, Vector(0), Vector(1, 2), Vector(0, 3), Vector(0, 1, 2), Vector(-1), Vector(2, 7))

  test("frequencies: hand-computed single-item values") {
    NetworkSql.withNetwork(tiny) { db =>
      for (f <- Seq(freqMap(tinyC, Vector(0)), sqlFreqMap(db, Vector(0))))
        assert(f == Map(0 -> 2.0 / 3, 1 -> 1.0, 2 -> 0.0))
      for (f <- Seq(freqMap(tinyC, Vector(2)), sqlFreqMap(db, Vector(2))))
        assert(f == Map(0 -> 1.0 / 3, 1 -> 0.0, 2 -> 0.0))
    }
  }

  test("frequencies: hand-computed pair pattern") {
    NetworkSql.withNetwork(tiny) { db =>
      for (f <- Seq(freqMap(tinyC, Vector(0, 1)), sqlFreqMap(db, Vector(0, 1))))
        assert(f == Map(0 -> 1.0 / 3, 1 -> 1.0, 2 -> 0.0))
    }
  }

  test("frequencies: empty pattern is 1 unless the database is empty") {
    NetworkSql.withNetwork(tiny) { db =>
      for (f <- Seq(freqMap(tinyC, Vector.empty), sqlFreqMap(db, Vector.empty)))
        assert(f == Map(0 -> 1.0, 1 -> 1.0, 2 -> 0.0))
    }
  }

  test("frequencies: unseen item gives all zeros") {
    NetworkSql.withNetwork(tiny) { db =>
      for (f <- Seq(freqMap(tinyC, Vector(99)), sqlFreqMap(db, Vector(99))))
        assert(f.size == 3 && f.values.forall(_ == 0.0))
    }
  }

  test("frequencies: anti-monotone in the pattern (f(p1) >= f(p2) for p1 ⊆ p2)") {
    val f1 = freqMap(tinyC, Vector(0))
    val f2 = freqMap(tinyC, Vector(0, 1))
    assert(f1.keySet.forall(v => f1(v) >= f2(v)))
  }

  test("frequencies agree with CompactNetwork.freq on random networks") {
    for (g <- TestNets.sparseNets(21, 10)) {
      val c = g.compact
      NetworkSql.withNetwork(g) { db =>
        for (p <- patterns) {
          NetworkSql.usePattern(db, p)
          Oracle.assertSameRows(freqRows(c, p), db.query(NetworkSql.frequencies), s"p=$p")
        }
      }
    }
  }

  test("frequencies match DuckDB (single item)") {
    NetworkSql.withNetwork(tiny) { db =>
      NetworkSql.usePattern(db, Vector(0))
      Oracle.assertSameRows(freqRows(tinyC, Vector(0)), db.query(NetworkSql.frequencies))
    }
  }

  test("frequencies match DuckDB (pair pattern, random network)") {
    val g = TestNets.randomNet(new Random(22))
    NetworkSql.withNetwork(g) { db =>
      NetworkSql.usePattern(db, Vector(1, 2))
      Oracle.assertSameRows(freqRows(g.compact, Vector(1, 2)), db.query(NetworkSql.frequencies))
    }
  }

  test("themeNetwork keeps exactly the edges between positive-frequency vertices") {
    // v0 and v1 hold item 0; v2's database is empty.
    NetworkSql.withNetwork(tiny) { db =>
      assert(themeRows(tinyC, Vector(0)) == Seq(Seq(0, 1)))
      assert(sqlThemeEdges(db, Vector(0)) == Set((0, 1)))
    }
  }

  test("themeNetwork matches DuckDB join") {
    for (g <- TestNets.sparseNets(23, 10)) {
      val c = g.compact
      NetworkSql.withNetwork(g) { db =>
        for (p <- patterns) {
          NetworkSql.usePattern(db, p)
          Oracle.assertSameRows(themeRows(c, p), db.query(NetworkSql.themeNetwork), s"p=$p")
        }
      }
    }
  }

  test("themeNetwork of the empty pattern is the whole graph (non-empty DBs)") {
    val g = TestNets.triangleNet
    NetworkSql.withNetwork(g) { db =>
      assert(g.compact.themeKeys(Array.emptyIntArray).length == 3)
      assert(sqlThemeEdges(db, Vector.empty) == g.edges.toSet)
    }
  }
}
