package repro.perfbench

import repro.core._
import repro.index.{TCNode, TCQueryResult, TCTree}
import repro.netgen.NetGen

import scala.collection.mutable
import scala.util.Random

/** mine-aminer: TCFI.run at α = 0 on the AMINER-like network. α = 0 is the
  * paper's worst case (Fig. 4) and AMINER has the largest candidate space;
  * about half the wall-clock is driver work between Spark jobs. Exercises
  * miners, pattern, model.freq, localtruss.mptd/intersect and spark; never
  * decomposes or queries a TC-Tree.
  */
object MineAminer {
  val Alpha = 0.0
  /** Passed explicitly, far above the longest pattern (8), so nothing is cut. */
  val MaxLen = 64

  final case class Summary(np: Long, nv: Long, ne: Long, candidates: Long, mptdCalls: Long,
                           pruned: Long, longest: Int, digest: String)

  def summary(rel: Relabelled, r: MiningResult): Summary =
    Summary(r.np, r.nv, r.ne, r.stats.candidates, r.stats.mptdCalls, r.stats.prunedByIntersection,
            if (r.trusses.isEmpty) 0 else r.trusses.keysIterator.map(_.length).max,
            Inputs.trussDigest(rel, r.trusses.iterator.map { case (p, t) => (p, t.edges) }))

  def run(r: Run): Unit = {
    val genSeed = r.opts.genSeed.getOrElse(Reference.AminerSeed)
    val (rel, net) = r.setup {
      val (rel, net) = r.prepare(NetGen.aminerLike(seed = genSeed))
      TCFI.run(r.spark, net, Alpha, MaxLen)
      (rel, net)
    }
    val expected =
      if (genSeed == Reference.AminerSeed) Reference.aminerMine
      else summary(rel, new Serial(net, new SpanLog).tcfi(Alpha, MaxLen))
    def verify(what: String, res: MiningResult): Unit = {
      val s = summary(rel, res)
      r.check(what, s == expected && s.longest < MaxLen, s"got $s, expected $expected")
    }

    if (!r.opts.trace) {
      val secs = mutable.ArrayBuffer.empty[Double]
      val mbs = mutable.ArrayBuffer.empty[Double]
      r.loop(r.MinSamples) {
        mbs += Jvm.droppedMb(Run.timed(TCFI.run(r.spark, net, Alpha, MaxLen))) { case (res, s) =>
          secs += s
          verify("TCFI.run", res)
        }
      }
      r.endToEnd ++= Seq("ops_per_s" -> 1 / Run.median(secs),
                         "result_mb" -> Run.median(mbs))
      r.report ++= Seq("mine_s" -> Run.median(secs), "mine_samples" -> secs.length, "mine_s_all" -> secs.toSeq,
                       "result_mb_all" -> mbs.toSeq, "summary" -> expected.toString)
      return
    }

    val (untraced, untracedS) = Run.timed(TCFI.run(r.spark, net, Alpha, MaxLen))
    verify("TCFI.run", untraced)
    val spark = new SparkTrace(r.spark.sparkContext).attach()
    val ((traced, tracedS), jvm) = Jvm.measure(Run.timed(TCFI.run(r.spark, net, Alpha, MaxLen)))
    spark.detach()
    verify("TCFI.run traced", traced)
    val log = new SpanLog
    val (replay, serialS) = Run.timed(new Serial(net, log).tcfi(Alpha, MaxLen))
    verify("serial TCFI replay", replay)
    log.write(r.spanFile())

    val sparkM = spark.metrics(r.cores)
    val jobS = sparkM.toMap.apply("spark.job_s")
    val st = traced.stats
    val calls = log.count("localtruss.mptd_calls")
    r.setLayers(sparkM ++ jvm ++ Seq(
      "miners.driver_s" -> (tracedS - jobS),
      "miners.levels" -> log.count("miners.levels"),
      "miners.candidates" -> st.candidates.toDouble,
      "miners.mptd_calls" -> st.mptdCalls.toDouble,
      "miners.pruned" -> st.prunedByIntersection.toDouble,
      "miners.prune_ratio" -> st.prunedByIntersection.toDouble / st.candidates,
      "miners.serial_s" -> serialS,
      "miners.vs_serial" -> untracedS / serialS,
      "pattern.join_s" -> log.seconds("pattern.join"),
      "pattern.join_out" -> log.count("pattern.join_out"),
      "localtruss.intersect_calls" -> log.count("localtruss.intersect_calls"),
      "localtruss.intersect_s" -> log.seconds("localtruss.intersect"),
      "localtruss.intersect_edges_in" -> log.count("localtruss.intersect_edges_in"),
      "localtruss.intersect_empty" -> log.count("localtruss.intersect_empty"),
      "model.freq_calls" -> log.count("model.freq_calls"),
      "model.freq_s" -> log.count("model.freq_s"),
      "localtruss.induce_s" -> log.seconds("localtruss.induce"),
      "localtruss.mptd_calls" -> calls,
      "localtruss.mptd_s" -> log.seconds("localtruss.mptd"),
      "localtruss.mptd_edges_in" -> log.count("localtruss.mptd_edges_in"),
      "localtruss.mptd_edges_in_max" -> log.count("localtruss.mptd_edges_in_max"),
      "localtruss.mptd_edges_out" -> log.count("localtruss.mptd_edges_out"),
      "localtruss.mptd_yield" -> log.count("localtruss.mptd_nonempty") / math.max(1.0, calls),
      "trace.overhead_s" -> (tracedS - untracedS),
    ))
    r.report ++= Seq(
      "mine_s" -> untracedS, "mine_traced_s" -> tracedS, "serial_s" -> serialS,
      "driver_share" -> (tracedS - jobS) / tracedS, "spans" -> log.nSpans, "summary" -> expected.toString)
  }
}

/** index-syn: TCTree.build with no depth cap on the SYN-like network. The
  * write path: decomposition instead of MPTD and sibling-pair intersection
  * instead of the Apriori join, on a preferential-attachment graph whose
  * hub trusses make the slowest Spark task matter. Never calls pattern or
  * Truss.intersectEdges.
  */
object IndexSyn {
  /** Passed explicitly, far above the deepest node (8), so nothing is cut. */
  val MaxDepth = 64

  final case class Summary(nodes: Int, depth: Int, digest: String)

  def summary(rel: Relabelled, t: TCTree): Summary = {
    val ns = t.nodes
    Summary(ns.length, t.maxDepth, Inputs.decompDigest(rel, ns.iterator.map(n => (n.pattern, n.decomp))))
  }

  def run(r: Run): Unit = {
    val genSeed = r.opts.genSeed.getOrElse(Reference.SynSeed)
    val (rel, net) = r.setup {
      val (rel, net) = r.prepare(NetGen.synLike(seed = genSeed))
      TCTree.build(r.spark, net, MaxDepth)
      (rel, net)
    }
    val expected =
      if (genSeed == Reference.SynSeed) Reference.synIndex
      else summary(rel, new Serial(net, new SpanLog).tcTree(MaxDepth))
    def verify(what: String, t: TCTree): Unit = {
      val s = summary(rel, t)
      r.check(what, s == expected && s.depth < MaxDepth, s"got $s, expected $expected")
    }

    if (!r.opts.trace) {
      val secs = mutable.ArrayBuffer.empty[Double]
      val mbs = mutable.ArrayBuffer.empty[Double]
      r.loop(r.MinSamples) {
        mbs += Jvm.droppedMb(Run.timed(TCTree.build(r.spark, net, MaxDepth))) { case (tree, s) =>
          secs += s
          verify("TCTree.build", tree)
        }
      }
      r.endToEnd ++= Seq("ops_per_s" -> 1 / Run.median(secs),
                         "result_mb" -> Run.median(mbs))
      r.report ++= Seq("build_s" -> Run.median(secs), "build_samples" -> secs.length, "build_s_all" -> secs.toSeq,
                       "result_mb_all" -> mbs.toSeq, "summary" -> expected.toString)
      return
    }

    val (untraced, untracedS) = Run.timed(TCTree.build(r.spark, net, MaxDepth))
    verify("TCTree.build", untraced)
    val spark = new SparkTrace(r.spark.sparkContext).attach()
    val ((traced, tracedS), jvm) = Jvm.measure(Run.timed(TCTree.build(r.spark, net, MaxDepth)))
    spark.detach()
    verify("TCTree.build traced", traced)
    val log = new SpanLog
    val (replay, serialS) = Run.timed(new Serial(net, log).tcTree(MaxDepth))
    verify("serial TC-Tree replay", replay)
    log.write(r.spanFile())

    val sparkM = spark.metrics(r.cores)
    val jobS = sparkM.toMap.apply("spark.job_s")
    val s = summary(rel, traced)
    r.setLayers(sparkM ++ jvm ++ Seq(
      "tctree.driver_s" -> (tracedS - jobS),
      "tctree.nodes" -> s.nodes.toDouble,
      "tctree.depth" -> s.depth.toDouble,
      "tctree.sibling_pairs" -> log.count("tctree.sibling_pairs"),
      "tctree.sibling_empty" -> log.count("tctree.sibling_empty"),
      "tctree.intersect_s" -> log.seconds("tctree.intersect"),
      "tctree.serial_build_s" -> serialS,
      "tctree.vs_serial" -> untracedS / serialS,
      "model.freq_calls" -> log.count("model.freq_calls"),
      "model.freq_s" -> log.count("model.freq_s"),
      "localtruss.induce_s" -> log.seconds("localtruss.induce"),
      "localtruss.decompose_calls" -> log.count("localtruss.decompose_calls"),
      "localtruss.decompose_s" -> log.seconds("localtruss.decompose"),
      "localtruss.decompose_steps" -> log.count("localtruss.decompose_steps"),
      "localtruss.decompose_edges_in" -> log.count("localtruss.decompose_edges_in"),
      "localtruss.decompose_edges_in_max" -> log.count("localtruss.decompose_edges_in_max"),
      "trace.overhead_s" -> (tracedS - untracedS),
    ))
    r.report ++= Seq(
      "build_s" -> untracedS, "build_traced_s" -> tracedS, "serial_build_s" -> serialS,
      "driver_share" -> (tracedS - jobS) / tracedS, "spans" -> log.nSpans, "summary" -> expected.toString)
  }
}

/** query-aminer: the read path. The AMINER TC-Tree is built during set-up;
  * one closed-loop client then alternates QBA queries (q = S, α_q on the
  * 0.1 grid over [0, α*]) and QBP queries (α_q = 0, patterns of tree nodes,
  * rendered to communities). Only tctree.query, Decomposition.trussAt and
  * connectedComponents run, so mining, Spark and kernel changes must leave
  * this workload unchanged.
  */
object QueryAminer {
  val MaxDepth = 64
  val AlphaStep = 0.1
  val QbpPool = 512

  /** A query answer reduced to what the brute-force scan can predict. */
  final case class Answer(nodes: Int, patternSum: Long, edges: Long)

  final case class Query(qba: Boolean, alpha: Double, pattern: Vector[Int], expected: Answer)

  def answerOf(results: Iterable[(Vector[Int], Vector[(Int, Int)])]): Answer = {
    var n = 0; var ps = 0L; var es = 0L
    for ((p, e) <- results) { n += 1; ps += Inputs.patternHash(p); es += e.length }
    Answer(n, ps, es)
  }

  /** Reference answer by a scan of every tree node, independent of
    * Algorithm 5's pruning: pattern ⊆ q and trussAt(α_q) non-empty.
    */
  def bruteForce(nodes: Array[TCNode], inQ: Vector[Int] => Boolean, alpha: Double): Answer = {
    var n = 0; var ps = 0L; var es = 0L
    for (node <- nodes if inQ(node.pattern)) {
      val kept = node.decomp.nodes.iterator.filter(_._1 > alpha + LocalTruss.Eps).map(_._2.length).sum
      if (kept > 0) { n += 1; ps += Inputs.patternHash(node.pattern); es += kept }
    }
    Answer(n, ps, es)
  }

  final class Setup(val rel: Relabelled, val tree: TCTree, val items: Set[Int], val qba: Vector[Query],
                    val qbp: Vector[Query], val treeMb: Double)

  private def setUp(r: Run, genSeed: Long): Setup = {
    val (rel, net) = r.prepare(NetGen.aminerLike(seed = genSeed))
    val (tree, mb) = Jvm.retainedMb(TCTree.build(r.spark, net, MaxDepth))
    val nodes = tree.nodes.toArray
    val alphaStar = nodes.iterator.map(_.decomp.maxAlpha).max
    val rnd = new Random(r.opts.seed)
    val qba = (0 to (alphaStar / AlphaStep).toInt).map(_ * AlphaStep).filter(_ <= alphaStar).map { a =>
      Query(qba = true, a, Vector.empty, bruteForce(nodes, _ => true, a))
    }.toVector
    val qbp = Vector.fill(QbpPool)(nodes(rnd.nextInt(nodes.length)).pattern).map { p =>
      Query(qba = false, 0.0, p, bruteForce(nodes, Pattern.isSubPattern(_, p), 0.0))
    }
    val s = new Setup(rel, tree, net.items.toSet, qba, qbp, mb)
    (qba ++ qbp).foreach(q => execute(s, q))
    s
  }

  /** One timed-path query; QBP answers are rendered to communities. */
  private def execute(s: Setup, q: Query): (TCQueryResult, Int) =
    if (q.qba) (s.tree.queryByAlpha(s.items, q.alpha), -1)
    else {
      val res = s.tree.queryByPattern(q.pattern)
      (res, res.communities.length)
    }

  private def verify(r: Run, q: Query, res: TCQueryResult, communities: Int): Unit = {
    val got = answerOf(res.results)
    r.check(if (q.qba) s"QBA alpha=${q.alpha}" else s"QBP ${Pattern.key(q.pattern)}",
      got == q.expected && (q.qba || communities >= res.retrievedNodes), s"got $got, expected ${q.expected}")
  }

  def run(r: Run): Unit = {
    val genSeed = r.opts.genSeed.getOrElse(Reference.AminerSeed)
    val s = r.setup(setUp(r, genSeed))
    val ns = s.tree.nodes
    r.report ++= Seq("tree_nodes" -> ns.length, "alpha_star" -> ns.iterator.map(_.decomp.maxAlpha).max,
                     "qba_pool" -> s.qba.length, "qbp_pool" -> s.qbp.length)
    if (genSeed == Reference.AminerSeed) {
      // TC-Tree ≡ TCFI: the tree's α = 0 trusses are exactly TCFI's at α = 0.
      val digest = Inputs.trussDigest(s.rel, ns.iterator.map(n => (n.pattern, n.trussAt(0.0))))
      r.check("TC-Tree at alpha=0 equals TCFI at alpha=0",
        ns.length == Reference.aminerMine.np && digest == Reference.aminerMine.digest, s"digest $digest")
    }

    if (!r.opts.trace) {
      // One closed-loop client. An operation is one batch: every QBA grid
      // point once, in seeded order, alternating with as many QBP queries
      // from a seeded cycle.
      val qbaMs, qbpMs, batchMs = mutable.ArrayBuffer.empty[Double]
      val rnd = new Random(r.opts.seed * 1000003L)
      val qbpIt = Iterator.continually(rnd.shuffle(s.qbp)).flatten
      val (_, wall) = Run.timed(r.loop(r.MinSamples) {
        var batch = 0.0
        for (qa <- rnd.shuffle(s.qba); q <- Seq(qa, qbpIt.next())) {
          val ((res, comms), sec) = Run.timed(execute(s, q))
          (if (q.qba) qbaMs else qbpMs) += sec * 1e3
          batch += sec * 1e3
          verify(r, q, res, comms)
        }
        batchMs += batch
      })
      r.endToEnd ++= Seq("ops_per_s" -> 1e3 / Run.median(batchMs), "result_mb" -> s.treeMb)
      r.report ++= Seq(
        "qba_p50_ms" -> Run.median(qbaMs), "qba_p99_ms" -> Run.percentile(qbaMs, 0.99),
        "qbp_p50_ms" -> Run.median(qbpMs), "qbp_p99_ms" -> Run.percentile(qbpMs, 0.99),
        "query_qps" -> (qbaMs.length + qbpMs.length) / wall, "qba_samples" -> qbaMs.length,
        "qbp_samples" -> qbpMs.length, "batch_p50_ms" -> Run.median(batchMs), "batches" -> batchMs.length)
      return
    }

    // One pass over every pool query, untraced and traced, then the
    // Algorithm 5 replay, whose answers must match.
    val round = s.qba ++ s.qbp
    def pass(): (Double, Long) = {
      var sec = 0.0; var retrieved = 0L
      for (q <- round) {
        val ((res, comms), t) = Run.timed(execute(s, q))
        sec += t; retrieved += res.retrievedNodes
        verify(r, q, res, comms)
      }
      (sec, retrieved)
    }
    val (untracedS, retrieved) = pass()
    val spark = new SparkTrace(r.spark.sparkContext).attach()
    val ((tracedS, _), jvm) = Jvm.measure(pass())
    spark.detach()
    val log = new SpanLog
    for (q <- round) {
      val res = Serial.query(s.tree, if (q.qba) s.items else q.pattern.toSet, q.alpha, log)
      val comms =
        if (q.qba) -1
        else log.span("localtruss.cc")(res.map(x => LocalTruss.connectedComponents(x._2).length).sum)
      verify(r, q, TCQueryResult(res), comms)
    }
    log.write(r.spanFile())
    val visited = log.count("tctree.visited")
    r.setLayers(spark.metrics(r.cores) ++ jvm ++ Seq(
      "tctree.nodes" -> ns.length.toDouble,
      "tctree.depth" -> s.tree.maxDepth.toDouble,
      "tctree.visited" -> visited,
      "tctree.retrieved" -> log.count("tctree.retrieved"),
      "tctree.retrieve_ratio" -> log.count("tctree.retrieved") / math.max(1.0, visited),
      "tctree.us_per_node" -> untracedS * 1e6 / math.max(1L, retrieved),
      "localtruss.trussat_calls" -> log.count("localtruss.trussat_calls"),
      "localtruss.trussat_s" -> log.seconds("localtruss.trussat"),
      "localtruss.cc_s" -> log.seconds("localtruss.cc"),
      "trace.overhead_s" -> (tracedS - untracedS),
    ))
    r.report ++= Seq("round_queries" -> round.length, "round_s" -> untracedS, "round_traced_s" -> tracedS,
                     "replay_s" -> log.seconds("tctree.query"), "spans" -> log.nSpans)
  }
}
