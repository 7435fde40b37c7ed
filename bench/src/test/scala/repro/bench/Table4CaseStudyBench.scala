package repro.bench

import repro.SparkSpec
import repro.core.{Pattern, TCFI}
import repro.harness.Experiments
import repro.netgen.NetGen

/** Table 4 / Figure 6 — case study on the AMINER-like network: discovered
  * theme communities carry planted topic keyword sets; communities shrink
  * as the pattern grows (Theorem 5.1); overlapping communities exist.
  */
class Table4CaseStudyBench extends SparkSpec {

  private lazy val net = NetGen.aminerLike()

  test("Table 4: discovered keyword sets correspond to planted topics") {
    val cs = Experiments.caseStudy(spark, net)
    println("== Table 4: keyword sets of discovered theme communities ==")
    println(Experiments.formatCaseStudy(cs))
    assert(cs.nonEmpty)
    val topicSets = net.groundTruth.map(_._1.toSet)
    val aligned = cs.count(c => topicSets.exists(t => c.pattern.toSet.subsetOf(t)))
    assert(aligned * 2 >= cs.size,
      s"only $aligned of ${cs.size} top communities align with planted topics")
  }

  test("Figure 6(a)-(b): adding a keyword shrinks the theme community") {
    val r = TCFI.run(spark, net.compact, 0.3)
    val nested = for {
      p <- r.trusses.keys.toSeq if p.length >= 2
      sub <- Pattern.subPatternsDropOne(p)
      if r.trusses.contains(sub)
    } yield (sub, p)
    assert(nested.nonEmpty)
    for ((sub, p) <- nested) {
      assert(r.trusses(p).edges.toSet.subsetOf(r.trusses(sub).edges.toSet))
    }
    val (sub, p) = nested.maxBy { case (s, q) => r.trusses(s).nVertices - r.trusses(q).nVertices }
    println(s"shrinkage example: ${Pattern.key(sub)} has ${r.trusses(sub).nVertices} vertices; " +
      s"adding one keyword (${Pattern.key(p)}) leaves ${r.trusses(p).nVertices}")
  }

  test("Figure 6(e)-(f): overlapping communities with different themes exist") {
    val r = TCFI.run(spark, net.compact, 0.3)
    val comms = r.communities.filter(_._1.length >= 2)
    val overlapping = (for {
      i <- comms.indices.iterator
      j <- ((i + 1) until comms.size).iterator
      if comms(i)._1.toSet != comms(j)._1.toSet &&
         !comms(i)._1.toSet.subsetOf(comms(j)._1.toSet) &&
         !comms(j)._1.toSet.subsetOf(comms(i)._1.toSet)
      inter = comms(i)._2 intersect comms(j)._2
      if inter.size >= 2
    } yield (comms(i)._1, comms(j)._1, inter.size)).take(1).toSeq
    assert(overlapping.nonEmpty, "expected vertices shared by communities of different themes")
    val (p1, p2, shared) = overlapping.head
    println(s"overlap example: ${Pattern.key(p1)} and ${Pattern.key(p2)} share $shared vertices")
  }
}
