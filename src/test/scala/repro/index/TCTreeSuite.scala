package repro.index

import repro.core._
import repro.netgen.NetGen
import repro.{NetworkSql, Oracle, SparkSpec, TestNets}

/** TC-Tree construction (Algorithm 4) and query answering (Algorithm 5)
  * against direct mining with TCFA/TCFI and direct MPTD recomputation.
  */
class TCTreeSuite extends SparkSpec {

  private lazy val triTree = TCTree.build(spark, TestNets.triangleNet.compact)
  private lazy val plantedNet = TestNets.smallPlanted()
  private lazy val plantedCompact = plantedNet.compact
  private lazy val plantedTree = TCTree.build(spark, plantedCompact, maxDepth = 4)
  private lazy val plantedExact = TCFI.run(spark, plantedCompact, 0.0, maxLen = 4)
  private lazy val bkCompact = NetGen.bkLike(300, seed = 5).compact
  private lazy val bkTree = TCTree.build(spark, bkCompact)

  /** Algorithm 4 as the paper states it: breadth-first, level by level,
    * with no Spark. Each child is decomposed inside the intersection of its
    * two generating siblings' α = 0 trusses, given as sorted edges.
    */
  private def breadthFirstTree(net: CompactNetwork, maxDepth: Int): TCNode = {
    def decompose(p: Vector[Int], within: Iterable[(Int, Int)]): Decomposition = {
      val f: Int => Double = net.freq(_, p)
      LocalTruss.decompose(LocalTruss.themeInduce(within, f), f)
    }
    val root = new TCNode(-1, Vector.empty, Decomposition.empty)
    for (s <- net.items) {
      val d = decompose(Vector(s), net.edgeList)
      if (!d.isEmpty) root.children += new TCNode(s, Vector(s), d)
    }
    var level = Vector(root)
    var depth = 1
    while (level.nonEmpty && depth < maxDepth) {
      for (parent <- level; sib = parent.children.toVector; i <- sib.indices; j <- (i + 1) until sib.length) {
        val within = sib(i).trussAt(0.0).toSet.intersect(sib(j).trussAt(0.0).toSet)
        if (within.nonEmpty) {
          val p = sib(i).pattern :+ sib(j).item
          val d = decompose(p, within.toVector.sorted)
          if (!d.isEmpty) sib(i).children += new TCNode(sib(j).item, p, d)
        }
      }
      level = level.flatMap(_.children)
      depth += 1
    }
    root
  }

  test("triangle net: nodes are exactly {0}, {1}, {0,1}") {
    assert(triTree.nodes.map(_.pattern).toSet ==
      Set(Vector(0), Vector(1), Vector(0, 1)))
    assert(triTree.nNodes == 3)
  }

  test("triangle net: SE-tree structure — {0,1} is a child of {0}, not of {1}") {
    val n0 = triTree.root.children.find(_.item == 0).get
    val n1 = triTree.root.children.find(_.item == 1).get
    assert(n0.children.map(_.pattern) == Seq(Vector(0, 1)))
    assert(n1.children.isEmpty)
  }

  test("triangle net: stored decompositions match direct decomposition") {
    val c = TestNets.triangleNet.compact
    for (node <- triTree.nodes) {
      val f: Int => Double = c.freq(_, node.pattern)
      val direct = LocalTruss.decompose(LocalTruss.themeInduce(c.edgeList, f), f)
      assert(node.decomp.nodes.map(_._1) == direct.nodes.map(_._1))
      assert(node.decomp.nodes.map(_._2.toSet) == direct.nodes.map(_._2.toSet))
    }
  }

  test("every node stores a non-empty decomposition (empty subtrees pruned)") {
    assert(plantedTree.nodes.forall(!_.decomp.isEmpty))
  }

  test("node patterns equal the exact qualified patterns at alpha = 0") {
    assert(plantedTree.nodes.map(_.pattern).toSet == plantedExact.trusses.keySet)
  }

  test("trussAt(0) of every node equals the mined maximal pattern truss") {
    for (node <- plantedTree.nodes) {
      assert(node.trussAt(0.0).toSet == plantedExact.trusses(node.pattern).edges.toSet,
             Pattern.key(node.pattern))
    }
  }

  test("children items are strictly larger than the parent's item (order ≺)") {
    def walk(n: TCNode): Unit = {
      for (c <- n.children) {
        if (n.item >= 0) assert(c.item > n.item)
        assert(c.pattern == n.pattern :+ c.item)
        walk(c)
      }
    }
    walk(plantedTree.root)
  }

  test("QBA: query with q = S at alpha matches direct mining at alpha") {
    val allItems = plantedCompact.items.toSet
    for (alpha <- Seq(0.0, 0.1, 0.3)) {
      val qr = plantedTree.queryByAlpha(allItems, alpha)
      val direct = TCFI.run(spark, plantedCompact, alpha, maxLen = 4)
      val got = qr.results.toMap
      assert(got.keySet == direct.trusses.keySet, s"alpha=$alpha")
      for ((p, es) <- got)
        assert(es.toSet == direct.trusses(p).edges.toSet, s"alpha=$alpha p=${Pattern.key(p)}")
    }
  }

  test("QBA: retrieved nodes decrease as alpha_q grows") {
    val allItems = plantedCompact.items.toSet
    val rns = Seq(0.0, 0.2, 0.5, 1.0).map(a => plantedTree.queryByAlpha(allItems, a).retrievedNodes)
    assert(rns == rns.sorted.reverse)
  }

  test("QBA at alphaStar returns nothing; just below it returns something") {
    val allItems = plantedCompact.items.toSet
    val aStar = plantedTree.alphaStar
    assert(plantedTree.queryByAlpha(allItems, aStar).retrievedNodes == 0)
    assert(plantedTree.queryByAlpha(allItems, aStar - 1e-6).retrievedNodes > 0)
  }

  test("query rejects alpha_q < 0 and NaN") {
    val allItems = plantedCompact.items.toSet
    for (a <- Seq(-0.1, -1e-12, Double.NaN)) {
      intercept[IllegalArgumentException](plantedTree.query(allItems, a))
      intercept[IllegalArgumentException](plantedTree.queryByAlpha(allItems, a))
    }
  }

  test("build rejects maxDepth < 1 on the driver") {
    for (d <- Seq(0, -1, Int.MinValue))
      intercept[IllegalArgumentException](TCTree.build(spark, plantedCompact, maxDepth = d))
  }

  test("QBP: returns exactly the stored sub-patterns of the query pattern") {
    val deepest = plantedTree.nodes.maxBy(_.pattern.length)
    val qr = plantedTree.queryByPattern(deepest.pattern)
    val expected = plantedTree.nodes.map(_.pattern)
      .filter(p => Pattern.isSubPattern(p, deepest.pattern)).toSet
    assert(qr.results.map(_._1).toSet == expected)
  }

  test("QBP: querying a single item returns at most that one node") {
    val item = plantedTree.root.children.head.item
    val qr = plantedTree.queryByPattern(Vector(item))
    assert(qr.results.map(_._1) == Vector(Vector(item)))
  }

  test("QBP with an item absent from the tree returns nothing") {
    assert(plantedTree.queryByPattern(Vector(10 * 1000 * 1000)).retrievedNodes == 0)
  }

  test("query(q, alpha) equals Equation 1 on every matching node (combined)") {
    val someNode = plantedTree.nodes.maxBy(_.pattern.length)
    val alpha = 0.15
    val qr = plantedTree.query(someNode.pattern.toSet, alpha)
    val expected = plantedTree.nodes
      .filter(n => Pattern.isSubPattern(n.pattern, someNode.pattern))
      .map(n => (n.pattern, n.trussAt(alpha)))
      .filter(_._2.nonEmpty)
      .toMap
    assert(qr.results.toMap.view.mapValues(_.toSet).toMap ==
      expected.view.mapValues(_.toSet).toMap)
  }

  test("query communities are maximal connected subgraphs of retrieved trusses") {
    // Reference: scan every node, keep those with pattern ⊆ q and a
    // non-empty truss at α_q, and split each truss by breadth-first search.
    def bruteForce(tree: TCTree, q: Set[Int], alpha: Double): Set[(Vector[Int], Set[Int])] =
      tree.nodes.iterator.filter(_.pattern.forall(q)).flatMap { n =>
        TestNets.bfsComponents(n.trussAt(alpha)).map(c => (n.pattern, c))
      }.toSet
    for ((name, tree, net) <- Seq(("planted", plantedTree, plantedCompact), ("bkLike", bkTree, bkCompact))) {
      val items = net.items.toSet
      val queries = Seq(0.0, 0.1, 0.3, tree.alphaStar / 2).map(a => (items, a)) ++
        tree.nodes.sortBy(n => (-n.pattern.length, Pattern.key(n.pattern))).take(5).map(n => (n.pattern.toSet, 0.0))
      for ((q, alpha) <- queries) {
        val got = tree.query(q, alpha).communities
        val want = bruteForce(tree, q, alpha)
        assert(want.nonEmpty, s"$name q=$q alpha=$alpha")
        assert(got.length == want.size && got.toSet == want, s"$name q=$q alpha=$alpha")
      }
    }
  }

  test("query ignores q items that no node carries: negative and above every tree item") {
    for ((tree, net) <- Seq((plantedTree, plantedCompact), (bkTree, bkCompact))) {
      val maxItem = tree.nodes.map(_.item).max
      val deepest = tree.nodes.maxBy(_.pattern.length).pattern.toSet
      for (q <- Seq(net.items.toSet, deepest); alpha <- Seq(0.0, 0.2)) {
        val plain = tree.query(q, alpha)
        val noisy = tree.query(q ++ Set(-1, -7, Int.MinValue, maxItem + 1, maxItem + 1000, Int.MaxValue), alpha)
        assert(noisy.retrievedNodes == plain.retrievedNodes)
        assert(noisy.results == plain.results)
      }
    }
  }

  test("maxDepth = 1 keeps only single-item nodes") {
    val shallow = TCTree.build(spark, plantedCompact, maxDepth = 1)
    assert(shallow.nodes.forall(_.pattern.length == 1))
    assert(shallow.nodes.map(_.pattern).toSet ==
      plantedExact.trusses.keySet.filter(_.length == 1))
  }

  test("nodesAtDepth partitions the nodes by pattern length") {
    val byDepth = (1 to plantedTree.maxDepth).map(d => plantedTree.nodesAtDepth(d).length).sum
    assert(byDepth == plantedTree.nNodes)
  }

  test("build equals a breadth-first Algorithm 4 node for node, at every depth cap") {
    // Build tasks take contiguous ranges of layer-1 subtrees. With more
    // subtrees than ranges, some range grows several of them in a row.
    val ranges = spark.sparkContext.defaultParallelism * Levelwise.RangesPerCore
    val subtrees = bkTree.root.children.length - 1 // the last layer-1 node has no later sibling
    assert(subtrees > ranges, s"bkLike has $subtrees layer-1 subtrees for $ranges ranges")
    val nets = Seq("planted" -> plantedCompact, "bkLike" -> bkCompact)
    for ((name, net) <- nets; maxDepth <- Seq(1, 2, 3, Int.MaxValue)) {
      val ctx = s"$name maxDepth=$maxDepth"
      def same(got: TCNode, want: TCNode): Unit = {
        assert(got.pattern == want.pattern, ctx)
        assert(got.children.map(_.pattern) == want.children.map(_.pattern), s"$ctx ${Pattern.key(got.pattern)}")
        assert(got.decomp.nodes.map(_._1) == want.decomp.nodes.map(_._1), s"$ctx ${Pattern.key(got.pattern)}")
        assert(got.decomp.nodes.map(_._2.toSet) == want.decomp.nodes.map(_._2.toSet), s"$ctx ${Pattern.key(got.pattern)}")
        got.children.zip(want.children).foreach { case (g, w) => same(g, w) }
      }
      val tree = TCTree.build(spark, net, maxDepth)
      same(tree.root, breadthFirstTree(net, maxDepth))
      assert(tree.maxDepth <= maxDepth, ctx)
    }
  }

  test("serial build equals the Spark build node for node, with bit-equal decompositions") {
    for ((name, tree, serial) <- Seq(("planted", plantedTree, TCTree.serial(plantedCompact, maxDepth = 4)),
                                     ("bkLike", bkTree, TCTree.serial(bkCompact)))) {
      def same(got: TCNode, want: TCNode): Unit = {
        val ctx = s"$name ${Pattern.key(want.pattern)}"
        assert(got.item == want.item && got.pattern == want.pattern, ctx)
        assert(got.decomp.thresholds.toVector == want.decomp.thresholds.toVector, ctx)
        assert(got.decomp.keys.toVector == want.decomp.keys.toVector, ctx)
        assert(got.decomp.offsets.toVector == want.decomp.offsets.toVector, ctx)
        assert(got.children.map(_.item) == want.children.map(_.item), ctx)
        got.children.zip(want.children).foreach { case (g, w) => same(g, w) }
      }
      same(serial.root, tree.root)
      assert(serial.nNodes == tree.nNodes && serial.nNodes > 0, name)
    }
    intercept[IllegalArgumentException](TCTree.serial(plantedCompact, maxDepth = 0))
  }

  test("tie rule: at alpha = each stored threshold, trussAt, mptd and the SQL peel agree") {
    // Case (node, β_k, C*_p(β_{k−1})): β_k is the least cohesion in C*_p(β_{k−1}).
    val cases = for {
      node <- plantedTree.nodes
      (beta, k) <- node.decomp.nodes.map(_._1).zipWithIndex
    } yield (node, beta, node.trussAt(if (k == 0) 0.0 else node.decomp.nodes(k - 1)._1))
    // The SQL peel takes one α per run. Cohesion is linear in the
    // frequencies, so case i runs as vertex block i of one disjoint union at
    // α = 1 with frequencies scaled by 1/β: an edge ties at 1 there exactly
    // when it ties at β. Each case starts from C*_p(β_{k−1}), which contains
    // C*_p(β_k).
    val n = plantedCompact.n
    val edges = Vector.newBuilder[(Int, Int)]
    val freqs = Vector.newBuilder[(Int, Double)]
    val direct = for (((node, beta, base), i) <- cases.zipWithIndex) yield {
      val f: Int => Double = plantedCompact.freq(_, node.pattern)
      edges ++= base.map { case (u, v) => (i * n + u, i * n + v) }
      freqs ++= base.flatMap(e => Seq(e._1, e._2)).distinct.map(v => (i * n + v, f(v) / beta))
      LocalTruss.mptd(LocalTruss.themeInduce(plantedCompact.edgeList, f), f, beta).edges.toSet
    }
    val got = NetworkSql.edgeSet(Oracle.withDb(NetworkSql.edgeTables(edges.result(), freqs.result()): _*)(NetworkSql.mptd(_, 1.0)))
      .groupBy(_._1 / n)
      .map { case (i, es) => i -> es.map { case (u, v) => (u - i * n, v - i * n) } }
    for (((node, beta, _), i) <- cases.zipWithIndex) {
      val what = s"${Pattern.key(node.pattern)} beta=$beta"
      assert(got.getOrElse(i, Set.empty) == direct(i), what)
      assert(node.trussAt(beta).toSet == direct(i), what)
    }
  }

  test("tree of an edgeless network is empty") {
    val g = repro.netgen.GenNet(3, Vector.empty, Vector.fill(3)(Vector(Vector(0))))
    val t = TCTree.build(spark, g.compact)
    assert(t.nNodes == 0)
    assert(t.alphaStar == 0.0)
  }
}
