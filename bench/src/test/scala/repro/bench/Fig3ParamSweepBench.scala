package repro.bench

import repro.SparkSpec
import repro.harness.Experiments

/** Figure 3 — effect of α and ε on BFS-sampled networks: runtime and
  * NP/NV/NE of TCS(ε), TCFA and TCFI. Asserts the paper's qualitative
  * claims: TCFA ≡ TCFI (exactness), TCS's ε trade-off, TCFI's MPTD-call
  * pruning, and the shrinking result sets as α grows.
  */
class Fig3ParamSweepBench extends SparkSpec {

  for (s <- Experiments.fig3Samples) test(s"Figure 3 sweep on ${s.name} (sampled)") {
    val rows = Experiments.printFig3(spark, s)

    val byAlpha = rows.groupBy(_.alpha)
    for ((a, rs) <- byAlpha) {
      val fa = rs.find(_.method == "TCFA").get
      val fi = rs.find(_.method == "TCFI").get
      // Exactness: TCFA and TCFI agree on all three result metrics.
      assert(fa.np == fi.np && fa.nv == fi.nv && fa.ne == fi.ne, s"alpha=$a")
      // TCFI never runs more MPTD calls.
      assert(fi.mptdCalls <= fa.mptdCalls, s"alpha=$a")
      // TCS is a lower bound on the exact result set.
      for (t <- rs if t.method.startsWith("TCS")) assert(t.np <= fa.np, s"alpha=$a ${t.method}")
    }
    // Larger eps can only lose results.
    for ((_, rs) <- byAlpha) {
      val tcs = rs.filter(_.method.startsWith("TCS")).sortBy(_.eps).map(_.np)
      assert(tcs == tcs.sorted.reverse)
    }
    // Exact NP shrinks as alpha grows.
    val npSeq = rows.filter(_.method == "TCFI").sortBy(_.alpha).map(_.np)
    assert(npSeq == npSeq.sorted.reverse)
    // At the worst case alpha = 0, TCFI substantially prunes candidate MPTD work.
    val fa0 = byAlpha(0.0).find(_.method == "TCFA").get
    val fi0 = byAlpha(0.0).find(_.method == "TCFI").get
    assert(fi0.mptdCalls < fa0.mptdCalls)
    println(f"alpha=0 MPTD calls: TCFA=${fa0.mptdCalls} TCFI=${fi0.mptdCalls} " +
      f"(pruned ${fi0.pruned}); time TCFA=${fa0.timeMs}ms TCFI=${fi0.timeMs}ms")
  }
}
