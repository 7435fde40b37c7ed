package repro.core

import org.apache.spark.sql.DataFrame
import repro.{SparkSpec, TestNets}

import scala.util.Random

/** The DataFrame fixed-point peeling must compute exactly the same maximal
  * pattern truss as the sequential Algorithm 1.
  */
class DistributedMPTDSuite extends SparkSpec {

  private def edgesDF(es: Seq[(Int, Int)]): DataFrame = {
    import spark.implicits._
    es.toDF("src", "dst")
  }

  private def freqDF(f: Seq[(Int, Double)]): DataFrame = {
    import spark.implicits._
    f.toDF("vertexId", "freq")
  }

  private def trussEdges(df: DataFrame): Set[(Int, Int)] =
    df.select("src", "dst").collect().map(r => (r.getInt(0), r.getInt(1))).toSet

  test("triangle with unit frequencies survives alpha = 0.5") {
    val out = DistributedMPTD.run(
      edgesDF(Seq((0, 1), (0, 2), (1, 2))),
      freqDF(Seq(0 -> 1.0, 1 -> 1.0, 2 -> 1.0)), 0.5)
    assert(trussEdges(out) == Set((0, 1), (0, 2), (1, 2)))
    assert(out.collect().forall(r => math.abs(r.getDouble(2) - 1.0) < 1e-12))
  }

  test("triangle with unit frequencies dies at alpha = 1 (strict)") {
    val out = DistributedMPTD.run(
      edgesDF(Seq((0, 1), (0, 2), (1, 2))),
      freqDF(Seq(0 -> 1.0, 1 -> 1.0, 2 -> 1.0)), 1.0)
    assert(out.isEmpty)
  }

  test("cascading removal: bowtie dies entirely at alpha = 1") {
    val bow = Seq((0, 1), (0, 2), (1, 2), (1, 3), (2, 3))
    val out = DistributedMPTD.run(edgesDF(bow), freqDF((0 to 3).map(_ -> 1.0)), 1.0)
    assert(out.isEmpty)
  }

  test("bowtie at alpha = 0: all five edges survive, shared edge eco 2") {
    val bow = Seq((0, 1), (0, 2), (1, 2), (1, 3), (2, 3))
    val out = DistributedMPTD.run(edgesDF(bow), freqDF((0 to 3).map(_ -> 1.0)), 0.0)
    val eco = out.collect().map(r => ((r.getInt(0), r.getInt(1)), r.getDouble(2))).toMap
    assert(eco.size == 5)
    assert(math.abs(eco((1, 2)) - 2.0) < 1e-12)
  }

  test("agrees with Algorithm 1 on random networks and real pattern frequencies") {
    val rnd = new Random(41)
    for (_ <- 0 until 4) {
      val g = TestNets.randomNet(rnd)
      val c = g.compact
      val net = g.toDF(spark)
      val p = Vector(rnd.nextInt(4))
      val alpha = rnd.nextInt(3) * 0.2
      val fDf = Frequency.frequencies(net, p)
      val theme = Frequency.themeNetwork(net.edges, fDf)
      val got = trussEdges(DistributedMPTD.run(theme, fDf, alpha))
      val f: Int => Double = c.freq(_, p)
      val expected = LocalTruss.mptd(LocalTruss.themeInduce(g.edges, f), f, alpha).edges.toSet
      assert(got == expected, s"p=$p alpha=$alpha")
    }
  }

  test("final cohesions agree with Algorithm 1 cohesions") {
    val g = TestNets.smallPlanted()
    val sample = repro.netgen.NetGen.bfsSample(g, 60)
    val c = sample.compact
    val net = sample.toDF(spark)
    val p = Vector(c.items.head)
    val fDf = Frequency.frequencies(net, p)
    val theme = Frequency.themeNetwork(net.edges, fDf)
    val got = DistributedMPTD.run(theme, fDf, 0.0)
      .collect().map(r => (LocalTruss.ekey(r.getInt(0), r.getInt(1)), r.getDouble(2))).toMap
    val f: Int => Double = c.freq(_, p)
    val expected = LocalTruss.mptd(LocalTruss.themeInduce(c.edgeList, f), f, 0.0)
    assert(got.keySet == expected.cohesion.keySet)
    for ((k, v) <- expected.cohesion) assert(math.abs(got(k) - v) < 1e-9)
  }

  test("empty theme network yields empty truss") {
    val out = DistributedMPTD.run(
      edgesDF(Seq.empty), freqDF(Seq(0 -> 1.0)), 0.0)
    assert(out.isEmpty)
  }
}
