package repro.core

import org.apache.spark.sql.SparkSession

import scala.collection.immutable.{AbstractMap, HashMap}
import scala.collection.mutable
import scala.reflect.ClassTag

/** Counters reported by the paper's efficiency study (Section 7):
  * `mptdCalls` is the number of MPTD invocations (Figure 3 discussion),
  * `candidates` the number of candidate patterns examined, and
  * `prunedByIntersection` the TCFI candidates discarded because the parent
  * trusses' intersection was empty (no MPTD run). `truncated` says that the
  * length cap `maxLen` stopped the enumeration while longer patterns could
  * still qualify, so the result may lack some of them.
  */
final case class MinerStats(
    mptdCalls: Long,
    candidates: Long,
    prunedByIntersection: Long,
    timeMs: Long,
    truncated: Boolean = false,
)

/** Result of a miner run: every non-empty maximal pattern truss keyed by its
  * pattern, plus the run counters. NP/NV/NE follow the paper's metrics: NP is
  * the number of maximal pattern trusses; NV (NE) counts a vertex (edge) once
  * per truss containing it. Every miner returns a `TrussMap`, which builds
  * a fresh `Truss` on each access.
  */
final case class MiningResult(trusses: Map[Vector[Int], Truss], stats: MinerStats) {
  def np: Long = trusses.size.toLong
  def nv: Long = trusses.valuesIterator.map(_.nVertices.toLong).sum
  def ne: Long = trusses.valuesIterator.map(_.nEdges.toLong).sum

  /** All theme communities: (pattern, member vertex set) per maximal
    * connected subgraph of each truss (Definition 3.5).
    */
  def communities: Seq[(Vector[Int], Set[Int])] =
    trusses.toSeq.sortBy(kv => Pattern.key(kv._1)).flatMap { case (p, t) =>
      LocalTruss.components(t.keys, 0, t.nEdges).map(c => (p, c))
    }
}

/** A miner's result map held as the engine's flat rows, one `Rows` per
  * level: entries are derived on access, and a lookup is a binary search in
  * the level of the pattern's length. Updates copy it into a plain map.
  */
private final class TrussMap(levels: Vector[Levelwise.Rows]) extends AbstractMap[Vector[Int], Truss] {
  def get(p: Vector[Int]): Option[Truss] =
    levels.find(_.patterns.width == p.length).flatMap { l =>
      val r = l.patterns.indexOf(p.toArray)
      if (r < 0) None else Some(l.truss(r))
    }

  def iterator: Iterator[(Vector[Int], Truss)] =
    levels.iterator.flatMap(l => Iterator.range(0, l.size).map(r => (l.patterns(r), l.truss(r))))

  def removed(p: Vector[Int]): Map[Vector[Int], Truss] = HashMap.from(this).removed(p)
  def updated[V1 >: Truss](p: Vector[Int], t: V1): Map[Vector[Int], V1] = HashMap.from(this).updated(p, t)
  override def size: Int = levels.map(_.size).sum
  override def knownSize: Int = size
}

private[repro] object MinerOps {

  /** α ranges over [0, ∞); checked on the driver, before any Spark job. */
  def requireAlpha(alpha: Double): Unit = require(alpha >= 0.0, s"alpha must be >= 0, got $alpha")

  /** A length cap below 1 would cut level 1 itself; checked on the driver. */
  def requireMaxLen(maxLen: Int): Unit = require(maxLen >= 1, s"maxLen must be >= 1, got $maxLen")
}

/** Theme Community Scanner (Section 4.2) — the baseline. Enumerates, per
  * vertex database, every pattern with frequency > ε, then runs MPTD on
  * each candidate's theme network. Trades accuracy for speed: a pattern
  * below ε on every vertex is never examined even if it forms a dense
  * truss. Pattern length is uncapped unless `maxLen` is given; a capped
  * result is flagged `truncated` when a candidate has `maxLen` items, since
  * the per-vertex enumeration stopped there.
  *
  * Two jobs on the `Levelwise` executor. The first is weighted by each
  * vertex's transaction count; each task returns the distinct candidates of
  * its vertices, and the driver merges them into one sorted `PatternSet` per
  * width. The candidates are downward closed, so the widths run 1..L with no
  * gaps. The second numbers the candidates across the widths, one unit each,
  * so a range may span widths: its task runs `Levelwise.seed` on the slice
  * of each width it overlaps. The driver concatenates each width's rows in
  * range order, one level of `Rows` per width.
  */
object TCS {
  def run(spark: SparkSession, net: CompactNetwork, alpha: Double, eps: Double,
          maxLen: Int = Int.MaxValue): MiningResult = {
    MinerOps.requireAlpha(alpha)
    MinerOps.requireMaxLen(maxLen)
    require(eps >= 0.0, s"eps must be >= 0, got $eps")
    val t0 = System.nanoTime()
    val exec = new Levelwise.SparkExec(spark, net)
    val levels =
      try {
        val found = exec((), Array.tabulate(net.n)(net.txs(_).length.toLong)) { (n, _, from, until, ws) =>
          val seen = mutable.HashSet.empty[Vector[Int]]
          for (v <- from until until; level <- localFrequentPatterns(n, v, eps, maxLen, ws); r <- 0 until level.size)
            seen += level(r)
          seen.toArray
        }.flatten
        val candidates = found.groupBy(_.length).toVector.sortBy(_._1).map { case (w, ps) => PatternSet(w, ps) }
        // Candidate i of width k is unit start(k) + i: one cut over every width.
        val start = candidates.scanLeft(0)(_ + _.size)
        val rows = exec(candidates, Array.fill(start.last)(1L)) { (n, cs, from, until, ws) =>
          for (k <- cs.indices if from < start(k + 1) && start(k) < until)
            yield Levelwise.seed(n, cs(k), (from max start(k)) - start(k), (until min start(k + 1)) - start(k), alpha, ws)
        }.flatten
        candidates.map(ps => Levelwise.Rows.concat(ps.width, rows.filter(_.patterns.width == ps.width)))
      } finally exec.close()
    val ms = (System.nanoTime() - t0) / 1000000
    val nCandidates = levels.map(_.candidates).sum
    MiningResult(new TrussMap(levels), MinerStats(nCandidates, nCandidates, 0L, ms, truncated = levels.length >= maxLen))
  }

  /** Algorithm 2 on the one database of vertex `v`: the patterns p with
    * f_v(p) > eps, up to `maxLen` items, as one sorted `PatternSet` per
    * width from 1 on. Level 1 is v's items above eps; level k + 1 joins
    * level k and keeps the candidates above eps. The threshold is
    * anti-monotone, so the levels hold every such pattern.
    */
  private[core] def localFrequentPatterns(net: CompactNetwork, v: Int, eps: Double, maxLen: Int,
                                          ws: Workspace): Vector[PatternSet] = {
    val out = Vector.newBuilder[PatternSet]
    var level = new PatternSet(1, net.txItems(v).filter(i => net.freq(v, Array(i), ws) > eps))
    while (level.size > 0) {
      out += level
      val next = new mutable.ArrayBuilder.ofInt
      if (level.width < maxLen)
        for (r <- 0 until level.size) level.join(r)((_, c) => if (net.freq(v, c, ws) > eps) next ++= c)
      level = new PatternSet(level.width + 1, next.result())
    }
    out.result()
  }
}

/** Theme Community Finder Apriori (Algorithm 3). Level-wise: qualified
  * length-(k−1) patterns generate length-k candidates via Algorithm 2; each
  * candidate's theme network is induced from the *full* database network
  * (`CompactNetwork.themeKeys`) and peeled by MPTD. Exact. Runs on the
  * `Levelwise` engine: one Spark job per level, one task per range of
  * prefix classes. Pattern length is uncapped unless `maxLen` is given.
  */
object TCFA {
  def run(spark: SparkSession, net: CompactNetwork, alpha: Double,
          maxLen: Int = Int.MaxValue): MiningResult =
    Levelwise.run(spark, net, alpha, maxLen, useIntersection = false)
}

/** Theme Community Finder Intersection (Section 5.3). The same `Levelwise`
  * engine as TCFA, but a candidate p^k = p^{k−1} ∪ q^{k−1} has its theme
  * network induced from C*_{p^{k−1}}(α) ∩ C*_{q^{k−1}}(α) (Proposition 5.3);
  * an empty intersection prunes the candidate without running MPTD. The
  * parents' trusses travel to the tasks as sorted edge-key arrays and are
  * intersected there by a linear merge. Exact; pattern length is uncapped
  * unless `maxLen` is given.
  */
object TCFI {
  def run(spark: SparkSession, net: CompactNetwork, alpha: Double,
          maxLen: Int = Int.MaxValue): MiningResult =
    Levelwise.run(spark, net, alpha, maxLen, useIntersection = true)
}

/** The level-synchronous engine behind TCFA and TCFI (Algorithm 3): one
  * Spark job per level, with the level loop on the driver.
  *
  * Level 1 runs MPTD on every single-item theme network. Level k ≥ 2 reads
  * level k−1 broadcast as it is: the `Rows` of the qualified (k−1)-patterns,
  * a sorted `PatternSet` with the sorted edge keys of each pattern's
  * C*_p(α), which TCFI intersects and TCFA leaves unread. The unit of work
  * is one parent with its later prefix-class mates (Zaki's Eclat class, the
  * unit `TCTree.build` also uses): the Algorithm 2 join, the binary search
  * for the other sub-patterns, the TCFI intersection (a linear merge) and
  * MPTD all run in the task that owns the parent. Tasks take contiguous
  * parent ranges cut at equal pair counts and return primitive `Rows`.
  * Since the set is sorted and the ranges are contiguous, the rows come back
  * sorted: the driver only concatenates them into the next level, and the
  * result map keeps the levels' arrays as they are (`TrussMap`).
  *
  * The candidates and the parent pair that generates each are those of
  * `Pattern.aprioriJoin`, whatever the number of tasks: a level's result
  * does not depend on how its parents are cut into ranges.
  */
private[repro] object Levelwise {

  /** Ranges per core in one `SparkExec` job: ranges hold equal weight (a
    * level's pair counts, say), but units of equal weight differ in cost,
    * so a few ranges per core even out the load.
    */
  val RangesPerCore = 4

  def run(spark: SparkSession, net: CompactNetwork, alpha: Double, maxLen: Int,
          useIntersection: Boolean): MiningResult = {
    val exec = new SparkExec(spark, net)
    try mine(exec, net, alpha, maxLen, useIntersection)
    finally exec.close()
  }

  /** The same levels with a plain loop in place of each Spark job: one
    * range per level, on the calling thread.
    */
  def serial(net: CompactNetwork, alpha: Double, maxLen: Int, useIntersection: Boolean): MiningResult =
    mine(new SerialExec(net), net, alpha, maxLen, useIntersection)

  /** Qualified patterns of one level, or one task's share of them, as
    * primitive rows in pattern order: row r is pattern r of `patterns`, with
    * the sorted edge keys of its truss at `from(r) until ends(r)`. The
    * counters cover every candidate examined. A level's rows are also what
    * the next level's tasks read.
    */
  final class Rows(val patterns: PatternSet, val ends: Array[Int], val keys: Array[Long],
                   val candidates: Long, val pruned: Long)
      extends Serializable {
    def size: Int = patterns.size
    def from(r: Int): Int = if (r == 0) 0 else ends(r - 1)

    def truss(r: Int): Truss = new Truss(java.util.Arrays.copyOfRange(keys, from(r), ends(r)))
  }

  object Rows {
    /** The blocks of one level's `width`-item patterns, concatenated in order. */
    def concat(width: Int, blocks: Seq[Rows]): Rows = {
      val ends = new mutable.ArrayBuilder.ofInt
      var base = 0
      for (b <- blocks) { b.ends.foreach(e => ends += base + e); base += b.keys.length }
      new Rows(new PatternSet(width, Array.concat(blocks.map(_.patterns.items): _*)), ends.result(),
               Array.concat(blocks.map(_.keys): _*),
               blocks.map(_.candidates).sum, blocks.map(_.pruned).sum)
    }
  }

  /** Cuts units `0 until weights.length` into contiguous ranges of about
    * equal total weight (`cut`), runs `task(net, shared, from, until, ws)`
    * on each and returns the results in range order; with no unit of
    * positive weight it runs nothing. Every job in the program runs here:
    * the miners' levels and the two jobs each of `TCS` and `TCTree.build`.
    * Each task gets a fresh `Workspace`, so no workspace is shared between
    * tasks or outlives one.
    */
  trait Exec {
    def apply[S: ClassTag, R: ClassTag](shared: S, weights: Array[Long])
                                       (task: (CompactNetwork, S, Int, Int, Workspace) => R): Seq[R]
  }

  /** One Spark job per call, `RangesPerCore` ranges per core and one task
    * per range; the network and `shared` reach the tasks as broadcasts.
    */
  final class SparkExec(spark: SparkSession, net: CompactNetwork) extends Exec {
    private val sc = spark.sparkContext
    private val bcNet = sc.broadcast(net)

    def apply[S: ClassTag, R: ClassTag](shared: S, weights: Array[Long])
                                       (task: (CompactNetwork, S, Int, Int, Workspace) => R): Seq[R] = {
      val ranges = cut(weights, sc.defaultParallelism * RangesPerCore)
      if (ranges.isEmpty) Nil
      else {
        val n = bcNet
        val b = sc.broadcast(shared)
        try sc.parallelize(ranges, ranges.length)
              .map { case (from, until) => task(n.value, b.value, from, until, new Workspace) }.collect().toSeq
        finally b.destroy()
      }
    }

    def close(): Unit = bcNet.destroy()
  }

  /** A plain loop in place of each Spark job: one range per job, on the calling thread. */
  final class SerialExec(net: CompactNetwork) extends Exec {
    def apply[S: ClassTag, R: ClassTag](shared: S, weights: Array[Long])
                                       (task: (CompactNetwork, S, Int, Int, Workspace) => R): Seq[R] =
      cut(weights, 1).map { case (from, until) => task(net, shared, from, until, new Workspace) }
  }

  /** Cuts units `0 until weights.length` into at most `n` contiguous ranges
    * of about equal total weight, leaving out units of weight 0 at the end.
    */
  def cut(weights: Array[Long], n: Int): Seq[(Int, Int)] = {
    val total = weights.sum
    val out = mutable.ArrayBuffer.empty[(Int, Int)]
    var from = 0; var acc = 0L
    for (i <- weights.indices) {
      acc += weights(i)
      if (weights(i) > 0 && acc * n >= total * (out.length + 1)) { out += ((from, i + 1)); from = i + 1 }
    }
    out.toSeq
  }

  private def mine(exec: Exec, net: CompactNetwork, alpha: Double, maxLen: Int,
                   useIntersection: Boolean): MiningResult = {
    MinerOps.requireAlpha(alpha)
    MinerOps.requireMaxLen(maxLen)
    val t0 = System.nanoTime()
    val levels = mutable.ArrayBuffer.empty[Rows]

    // One level's job over units of the given weights (none if all are 0);
    // the rows come back in unit order and are kept as one level.
    def runLevel[S: ClassTag](k: Int, shared: S, weights: Array[Long])
                             (task: (CompactNetwork, S, Int, Int, Workspace) => Rows): Rows = {
      val level = Rows.concat(k, exec(shared, weights)(task))
      levels += level
      level
    }

    // Level 1 (Algorithm 3 line 1): MPTD on every single-item theme network.
    val items = net.items
    var level = runLevel(1, new PatternSet(1, items), Array.fill(items.length)(1L)) {
      (n, ps, from, until, ws) => seed(n, ps, from, until, alpha, ws)
    }
    var k = 2
    while (level.size > 0 && k <= maxLen) {
      level = runLevel(k, level, level.patterns.laterInClass.map(_.toLong)) {
        (n, ps, from, until, ws) => grow(n, ps, from, until, alpha, useIntersection, ws)
      }
      k += 1
    }
    // Stopped by the cap: level maxLen + 1 would have had candidates.
    val truncated = level.size > 0 && (0 until level.size).exists { r =>
      var any = false
      level.patterns.join(r)((_, _) => any = true)
      any
    }
    val ms = (System.nanoTime() - t0) / 1000000
    // Every candidate is either pruned or peeled by one MPTD call.
    val candidates = levels.map(_.candidates).sum
    val pruned = levels.map(_.pruned).sum
    MiningResult(new TrussMap(levels.toVector), MinerStats(candidates - pruned, candidates, pruned, ms, truncated))
  }

  /** Task of level 1 and of TCS: MPTD on the theme network of each pattern
    * `ps(from until until)`, induced from the full network, in `ws`.
    */
  private[core] def seed(net: CompactNetwork, ps: PatternSet, from: Int, until: Int, alpha: Double,
                         ws: Workspace): Rows = {
    val out = new RowsBuilder(ps.width)
    for (r <- from until until) {
      val p = java.util.Arrays.copyOfRange(ps.items, r * ps.width, (r + 1) * ps.width)
      val keys = net.themeKeys(p, ws)
      out.detect(net, p, keys, keys.length, alpha, ws)
    }
    out.result()
  }

  /** Level-k task, k ≥ 2, over the rows `ps` of level k − 1: Algorithm 2
    * for each parent in `from until until` against its later class mates,
    * then MPTD on each candidate's theme network — induced from the full
    * network (TCFA, which reads no parent keys) or from the linear-merge
    * intersection of the two parents' trusses, skipped when empty (TCFI).
    * Every kernel call, and the intersection, runs in `ws`.
    */
  private def grow(net: CompactNetwork, ps: Rows, from: Int, until: Int, alpha: Double,
                   useIntersection: Boolean, ws: Workspace): Rows = {
    val out = new RowsBuilder(ps.patterns.width + 1)
    for (r <- from until until) ps.patterns.join(r) { (s, c) =>
      if (!useIntersection) {
        val keys = net.themeKeys(c, ws)
        out.detect(net, c, keys, keys.length, alpha, ws)
      } else {
        val n = ws.intersect(ps.keys, ps.from(r), ps.ends(r), ps.keys, ps.from(s), ps.ends(s))
        if (n == 0) out.prune()
        else out.detect(net, c, ws.intersection, n, alpha, ws)
      }
    }
    out.result()
  }

  private final class RowsBuilder(width: Int) {
    private val patterns = new mutable.ArrayBuilder.ofInt
    private val ends = new mutable.ArrayBuilder.ofInt
    private val keys = new mutable.ArrayBuilder.ofLong
    private var nKeys = 0
    private var candidates = 0L
    private var pruned = 0L

    /** MPTD on the theme network of `c` within the edges keyed by `within(0 until n)`. */
    def detect(net: CompactNetwork, c: Array[Int], within: Array[Long], n: Int, alpha: Double, ws: Workspace): Unit = {
      candidates += 1
      val t = LocalTruss.mptd(within, n, net.freq(_, c, ws), alpha, ws)
      if (!t.isEmpty) {
        patterns ++= c; keys ++= t.keys
        nKeys += t.nEdges; ends += nKeys
      }
    }

    def prune(): Unit = { candidates += 1; pruned += 1 }

    def result(): Rows =
      new Rows(new PatternSet(width, patterns.result()), ends.result(), keys.result(), candidates, pruned)
  }
}
