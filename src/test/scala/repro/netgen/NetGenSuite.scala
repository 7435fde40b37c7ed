package repro.netgen

import org.scalatest.funsuite.AnyFunSuite
import repro.core.NetworkStats
import repro.{NetworkSql, Oracle}

/** Generators: determinism, structural validity, planted-pattern strength,
  * the SYN recipe's degree-driven database sizes, and BFS sampling.
  */
class NetGenSuite extends AnyFunSuite {

  private def validate(g: GenNet): Unit = {
    assert(g.txs.length == g.n)
    for ((u, v) <- g.edges) {
      assert(u < v, s"non-canonical edge ($u,$v)")
      assert(u >= 0 && v < g.n)
    }
    assert(g.edges.distinct.length == g.edges.length)
    assert(g.txs.forall(_.nonEmpty), "every vertex must carry a database")
    assert(g.txs.forall(_.forall(_.nonEmpty)), "transactions must be non-empty")
  }

  test("bkLike is deterministic in its seed") {
    val a = NetGen.bkLike(300, seed = 5)
    val b = NetGen.bkLike(300, seed = 5)
    assert(a.edges == b.edges && a.txs == b.txs)
    val c = NetGen.bkLike(300, seed = 6)
    assert(a.edges != c.edges || a.txs != c.txs)
  }

  test("gwLike / aminerLike / synLike are deterministic in their seeds") {
    assert(NetGen.gwLike(300, seed = 5).edges == NetGen.gwLike(300, seed = 5).edges)
    assert(NetGen.aminerLike(200, 10, 50, seed = 5).edges ==
           NetGen.aminerLike(200, 10, 50, seed = 5).edges)
    assert(NetGen.synLike(300, seed = 5).edges == NetGen.synLike(300, seed = 5).edges)
  }

  test("all four generators produce structurally valid networks") {
    validate(NetGen.bkLike(300, seed = 1))
    validate(NetGen.gwLike(300, seed = 1))
    validate(NetGen.aminerLike(200, 10, 50, seed = 1))
    validate(NetGen.synLike(300, seed = 1))
  }

  test("GW-like is denser than BK-like (paper Table 2 ordering)") {
    val bk = NetGen.bkLike(600, seed = 2)
    val gw = NetGen.gwLike(600, seed = 2)
    assert(gw.nEdges.toDouble / gw.n > bk.nEdges.toDouble / bk.n)
  }

  test("checkin groups: favourite pattern is genuinely frequent on members") {
    val g = NetGen.bkLike(400, seed = 3)
    val c = g.compact
    val strong = g.groundTruth.count { case (p, members) =>
      val f = members.toSeq.map(c.freq(_, p))
      f.sum / f.size > 0.2
    }
    assert(strong * 2 >= g.groundTruth.size)
  }

  test("aminer: topic keywords frequent on group members, groups are wired") {
    val g = NetGen.aminerLike(200, 10, 50, seed = 4)
    val c = g.compact
    val adj = c.adj
    for ((p, members) <- g.groundTruth.take(5)) {
      val f = members.toSeq.map(c.freq(_, p))
      assert(f.max > 0.2, s"pattern $p never frequent")
      val ms = members.toSeq
      val internal = (for (i <- ms.indices; j <- (i + 1) until ms.length
                           if adj(ms(i)).contains(ms(j))) yield 1).sum
      assert(internal >= ms.length - 1, "group should be densely connected")
    }
  }

  test("synLike follows the degree-driven database-size recipe") {
    val g = NetGen.synLike(300, seed = 6)
    val deg = Array.fill(g.n)(0)
    g.edges.foreach { case (u, v) => deg(u) += 1; deg(v) += 1 }
    for (v <- 0 until g.n) {
      val expectTx = math.min(25, math.ceil(math.exp(0.10 * deg(v))).toInt)
      assert(g.txs(v).length == expectTx, s"v=$v deg=${deg(v)}")
      val expectLen = math.min(8, math.max(1, math.ceil(math.exp(0.13 * deg(v))).toInt))
      assert(g.txs(v).forall(_.length <= expectLen))
    }
  }

  test("synLike degrees are skewed (preferential attachment)") {
    val g = NetGen.synLike(500, seed = 7)
    val deg = Array.fill(g.n)(0)
    g.edges.foreach { case (u, v) => deg(u) += 1; deg(v) += 1 }
    assert(deg.max > 3 * (2.0 * g.nEdges / g.n), "expected a heavy-tail hub")
  }

  test("bfsSample returns exactly the requested edge count") {
    val g = NetGen.bkLike(400, seed = 8)
    val s = NetGen.bfsSample(g, 200)
    assert(s.nEdges == 200)
    validate(s)
  }

  test("bfsSample takes min(m, |E|) edges when every vertex is visited before m are taken") {
    // In K4 the walk visits all four vertices from its first seed, so the
    // edges still waiting at the queued vertices must be taken too.
    val k4 = GenNet(4, (for (i <- 0 until 4; j <- (i + 1) until 4) yield (i, j)).toVector,
                    Vector.fill(4)(Vector(Vector(0))))
    val rnd = new scala.util.Random(12)
    val cases = (0 until 6).map(seed => (k4, seed.toLong)) ++
      Seq.fill(20)((repro.TestNets.randomNet(rnd), rnd.nextInt(100).toLong))
    for ((g, seed) <- cases; m <- 1 to g.nEdges) {
      val s = NetGen.bfsSample(g, m, seed)
      assert(s.nEdges == math.min(m, g.nEdges), s"n=${g.n} |E|=${g.nEdges} m=$m seed=$seed")
      validate(s)
    }
  }

  test("bfsSample with m >= |E| returns the original network") {
    val g = NetGen.bkLike(200, seed = 9)
    assert(NetGen.bfsSample(g, g.nEdges + 10) eq g)
  }

  test("bfsSample is deterministic and remaps ground truth consistently") {
    val g = NetGen.bkLike(400, seed = 10)
    val a = NetGen.bfsSample(g, 300, seed = 1)
    val b = NetGen.bfsSample(g, 300, seed = 1)
    assert(a.edges == b.edges && a.txs == b.txs)
    for ((_, members) <- a.groundTruth; m <- members) assert(m >= 0 && m < a.n)
  }

  test("Table 2 statistics match DuckDB over the transactions table") {
    // Edges twice, reversed and as self-loops; an item twice in one
    // transaction; empty transactions and an empty database.
    val hand = GenNet(4, Vector((0, 1), (1, 0), (1, 2), (2, 2), (0, 1)),
                      Vector(Vector(Vector(0, 0, 1), Vector.empty), Vector(Vector(1)), Vector.empty, Vector(Vector(2, 0))))
    assert(hand.compact.stats == NetworkStats(4, 2, 3, 5, 3))
    for (g <- Seq(hand, NetGen.bkLike(150, seed = 12), NetGen.aminerLike(100, 6, 40, seed = 11))) {
      val s = g.compact.stats
      NetworkSql.withNetwork(g) { db =>
        Oracle.assertSameRows(Seq(Seq(s.nVertices, s.nEdges, s.nTransactions, s.nItemsTotal, s.nItemsUnique)),
                              db.query(NetworkSql.stats))
      }
    }
  }

  test("stats helper equals the raw aggregation") {
    val g = NetGen.gwLike(150, seed = 13)
    val s = g.compact.stats
    assert(s.nVertices == g.n)
    assert(s.nEdges == g.nEdges)
    assert(s.nTransactions == g.txs.map(_.size).sum)
    assert(s.nItemsTotal == g.txs.map(_.map(_.distinct.size).sum).sum)
    assert(s.nItemsUnique == g.txs.flatMap(_.flatten).distinct.size)
  }

  test("generators reject non-positive size arguments") {
    for (bad <- Seq(0, -1, Int.MinValue)) {
      intercept[IllegalArgumentException](NetGen.checkinLike(bad, 4, 20, 1.0, 0.5, seed = 1))
      intercept[IllegalArgumentException](NetGen.checkinLike(50, bad, 20, 1.0, 0.5, seed = 1))
      intercept[IllegalArgumentException](NetGen.checkinLike(50, 4, bad, 1.0, 0.5, seed = 1))
      intercept[IllegalArgumentException](NetGen.bkLike(bad))
      intercept[IllegalArgumentException](NetGen.gwLike(bad))
      intercept[IllegalArgumentException](NetGen.aminerLike(nAuthors = bad))
      intercept[IllegalArgumentException](NetGen.aminerLike(nTopics = bad))
      intercept[IllegalArgumentException](NetGen.aminerLike(vocab = bad))
      intercept[IllegalArgumentException](NetGen.synLike(nVertices = bad))
      intercept[IllegalArgumentException](NetGen.synLike(mAttach = bad))
      intercept[IllegalArgumentException](NetGen.synLike(nSeeds = bad))
      intercept[IllegalArgumentException](NetGen.synLike(vocab = bad))
    }
    intercept[IllegalArgumentException](NetGen.bfsSample(NetGen.bkLike(100, seed = 1), -1))
  }

  test("checkinLike rejects edge densities it cannot draw instead of looping") {
    intercept[IllegalArgumentException](NetGen.checkinLike(50, 4, 20, -0.5, 0.5, seed = 1))
    intercept[IllegalArgumentException](NetGen.checkinLike(50, 4, 20, 1.0, 1.5, seed = 1))
    intercept[IllegalArgumentException](NetGen.checkinLike(50, 4, 20, 1.0, Double.NaN, seed = 1))
    // 10 vertices hold 45 pairs: 50 extra edges cannot fit, 20 can.
    intercept[IllegalArgumentException](NetGen.checkinLike(10, 1, 20, 5.0, 0.5, seed = 1))
    assert(NetGen.checkinLike(10, 1, 20, 2.0, 0.0, seed = 1).nEdges == 20)
  }
}
