package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalatest.funsuite.AnyFunSuite
import repro.TestNets
import repro.netgen.GenNet

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}

/** `CompactNetwork`: serialisation, theme induction and frequencies. */
class ModelSuite extends AnyFunSuite {

  test("a serialised CompactNetwork ships no derived field and derives them again") {
    def bytes(n: CompactNetwork): Array[Byte] = {
      val b = new ByteArrayOutputStream()
      val out = new ObjectOutputStream(b)
      out.writeObject(n); out.close()
      b.toByteArray
    }
    val net = TestNets.smallPlanted().compact
    val p = Vector(net.items.head)
    def derived(n: CompactNetwork) =
      (n.edgeList.toVector, n.items.toVector, Vector.tabulate(n.n)(n.freq(_, p)),
       n.support(p.head).toVector, n.themeKeys(p.toArray).toVector)
    val before = derived(net)
    assert(bytes(net).length == bytes(TestNets.smallPlanted().compact).length)
    val copy = new ObjectInputStream(new ByteArrayInputStream(bytes(net))).readObject().asInstanceOf[CompactNetwork]
    assert(derived(copy) == before)
  }

  /** Theme induction as it reads on paper: every edge of the network whose
    * two endpoints have f_v(p) > 0.
    */
  private def inducedKeys(net: CompactNetwork, p: Vector[Int]): Vector[Long] =
    LocalTruss.edgeKeys(LocalTruss.themeInduce(net.edgeList, net.freq(_, p))).toVector

  /** A random net over items 0 until 6 in which about a quarter of the
    * vertices have an empty database.
    */
  private def sparseDbNet(seed: Long): CompactNetwork = {
    val rnd = new scala.util.Random(seed)
    val g = TestNets.randomNet(rnd, maxN = 14, vocab = 6)
    GenNet(g.n, g.edges, g.txs.map(t => if (rnd.nextInt(4) == 0) Vector.empty else t)).compact
  }

  test("themeKeys equals theme induction from the whole edge list") {
    // Items -1 and 6..8 are outside S; p = ∅ and patterns of up to 3 items.
    val pattern = Gen.choose(0, 3).flatMap(Gen.listOfN(_, Gen.choose(-1, 8))).map(_.distinct.sorted.toVector)
    val prop = Prop.forAll(Gen.choose(0L, Long.MaxValue), pattern) { (seed, p) =>
      val net = sparseDbNet(seed)
      val keys = net.themeKeys(p.toArray).toVector
      keys == inducedKeys(net, p) && keys == keys.sorted && keys.distinct == keys
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(500), prop)
    assert(res.passed, res.status)
  }

  test("themeKeys: empty pattern, items outside S and empty databases") {
    val net = GenNet(4, Vector((0, 1), (0, 2), (1, 2), (2, 3)),
                     Vector(Vector(Vector(0)), Vector(Vector(0, 1)), Vector.empty, Vector(Vector(1)))).compact
    // p = ∅ follows freq: every vertex with a non-empty database, so not 2.
    assert(net.themeKeys(Array.emptyIntArray).toVector == Vector(LocalTruss.ekey(0, 1)))
    assert(net.themeKeys(Array(0)).toVector == Vector(LocalTruss.ekey(0, 1)))
    assert(net.themeKeys(Array(0, 1)).isEmpty && net.themeKeys(Array(1)).isEmpty)
    for (p <- Seq(Vector(7), Vector(-1), Vector(0, 7))) {
      assert(net.support(p.last).isEmpty)
      assert(net.themeKeys(p.toArray).isEmpty)
    }
    for (p <- Seq(Vector.empty[Int], Vector(0), Vector(1), Vector(0, 1), Vector(7)))
      assert(net.themeKeys(p.toArray).toVector == inducedKeys(net, p))
    assert(net.support(0).toVector == Vector(0, 1) && net.support(1).toVector == Vector(1, 3))
  }

  test("freq equals a naive count over the transactions, in one reused workspace") {
    // Databases of 0, a few or many transactions over items 0 until 4, so
    // patterns of 3-4 items run the buffered merge at many sizes; items -1
    // and 4..6 are outside S.
    val net = for {
      seed <- Gen.choose(0L, Long.MaxValue)
      n    <- Gen.choose(1, 12)
    } yield {
      val rnd = new scala.util.Random(seed)
      val txs = Vector.fill(n) {
        val size = rnd.nextInt(3) match { case 0 => 0; case 1 => 1 + rnd.nextInt(4); case _ => 20 + rnd.nextInt(60) }
        Vector.fill(size)(Vector.fill(1 + rnd.nextInt(4))(rnd.nextInt(4)).distinct.sorted)
      }
      GenNet(n, Vector.empty, txs)
    }
    val pattern = Gen.choose(0, 4).flatMap(Gen.listOfN(_, Gen.choose(-1, 6))).map(_.distinct.sorted.toArray)
    def naive(txs: Seq[Seq[Int]], p: Array[Int]): Double =
      if (txs.isEmpty) 0.0 else txs.count(t => p.forall(t.contains)).toDouble / txs.length
    val prop = Prop.forAll(net, Gen.listOfN(40, Gen.zip(Gen.choose(0, 11), pattern))) { (g, calls) =>
      val c = g.compact
      val ws = new Workspace
      calls.forall { case (v0, p) =>
        val v = v0 % g.n
        val want = naive(g.txs(v), p)
        c.freq(v, p, ws) == want && c.freq(v, p) == want && c.freq(v, p.toVector) == want
      }
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(res.passed, res.status)
  }

  /** A triangle 0-1-2 with one database per vertex, built from the given parts. */
  private def triangle(adj: Array[Array[Int]] = Array(Array(1, 2), Array(0, 2), Array(0, 1)),
                       txs: Array[Array[Array[Int]]] = Array(Array(Array(0)), Array(Array(0, 1)), Array(Array(1)))) =
    CompactNetwork(adj, txs)

  test("CompactNetwork rejects a vertex database count that is not the vertex count") {
    assert(triangle().n == 3)
    intercept[IllegalArgumentException](triangle(txs = Array(Array(Array(0)), Array(Array(1)))))
    intercept[IllegalArgumentException](triangle(txs = Array.fill(4)(Array(Array(0)))))
  }

  test("CompactNetwork rejects adjacency that is unsorted, repeated, out of range, looped or one-sided") {
    for (adj <- Seq(
           Array(Array(2, 1), Array(0, 2), Array(0, 1)),     // not ascending
           Array(Array(1, 1, 2), Array(0, 2), Array(0, 1)),  // repeated neighbour
           Array(Array(1, 2, 3), Array(0, 2), Array(0, 1)),  // neighbour >= n
           Array(Array(-1, 1, 2), Array(0, 2), Array(0, 1)), // negative neighbour
           Array(Array(0, 1, 2), Array(0, 2), Array(0, 1)),  // self-loop
           Array(Array(1, 2), Array(0, 2), Array(1)),        // edge (0, 2) without (2, 0)
         ))
      withClue(adj.map(_.mkString(",")).mkString(" | ")) {
        intercept[IllegalArgumentException](triangle(adj = adj))
      }
  }

  test("CompactNetwork rejects negative or repeated items in a transaction") {
    intercept[IllegalArgumentException](triangle(txs = Array(Array(Array(0)), Array(Array(-3, 1)), Array(Array(1)))))
    intercept[IllegalArgumentException](triangle(txs = Array(Array(Array(0)), Array(Array(1, 0, 1)), Array(Array(1)))))
    // The same item in two transactions of one vertex is a multi-set, not a repeat.
    assert(triangle(txs = Array(Array(Array(0), Array(0)), Array(Array(0, 1)), Array(Array(1)))).freq(0, Array(0)) == 1.0)
  }

  test("GenNet.compact drops self-loops and keeps the edge count") {
    val withLoops = GenNet(3, Vector((0, 0), (0, 1), (1, 2), (2, 2), (0, 2)),
                           Vector(Vector(Vector(0)), Vector(Vector(0, 1)), Vector(Vector(1))))
    val c = withLoops.compact
    assert(c.adj.map(_.toVector).toVector == Vector(Vector(1, 2), Vector(0, 2), Vector(0, 1)))
    assert(c.nEdges == 3 && c.stats.nEdges == 3)
  }
}
