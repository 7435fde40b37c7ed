package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** A database network G = (V, E, D, S) held as Spark DataFrames.
  *
  * Schemas (all column types are INT unless noted):
  *  - `vertices(id)`
  *  - `edges(src, dst)` with the canonical orientation `src < dst`
  *    (the graph is undirected; one row per edge)
  *  - `transactions(vertexId, txId BIGINT, item)` in long format: one row per
  *    (transaction, item) occurrence. A transaction database is a multi-set,
  *    so two transactions of the same vertex may contain identical item sets
  *    under different `txId`s.
  */
final case class DatabaseNetwork(
    vertices: DataFrame,
    edges: DataFrame,
    transactions: DataFrame,
) {

  /** Table 2 statistics of this database network. */
  def stats: NetworkStats = {
    val nV = vertices.count()
    val nE = edges.count()
    val row = transactions
      .agg(
        countDistinct(struct(col("vertexId"), col("txId"))) as "nTx",
        count(lit(1))                                       as "itemsTotal",
        countDistinct(col("item"))                          as "itemsUnique",
      )
      .head()
    NetworkStats(nV, nE, row.getLong(0), row.getLong(1), row.getLong(2))
  }
}

/** Table 2 row: the five statistics the paper reports per dataset. */
final case class NetworkStats(
    nVertices: Long,
    nEdges: Long,
    nTransactions: Long,
    nItemsTotal: Long,
    nItemsUnique: Long,
)

object DatabaseNetwork {

  /** The `txId` of the ti-th transaction of vertex v: v in the high 32
    * bits, ti in the low 32, so ids never collide across vertices.
    */
  def txId(v: Int, ti: Int): Long = (v.toLong << 32) | ti.toLong

  /** Build the DataFrame model from driver-side collections.
    *
    * @param n     number of vertices (ids 0..n−1)
    * @param edges undirected edges, any orientation, self-loops dropped
    * @param txs   per-vertex transaction databases (txs(v) is the multi-set)
    */
  def fromLocal(
      spark: SparkSession,
      n: Int,
      edges: Seq[(Int, Int)],
      txs: IndexedSeq[Seq[Seq[Int]]],
  ): DatabaseNetwork = {
    import spark.implicits._
    require(txs.length == n, s"txs has ${txs.length} entries for $n vertices")
    val canon = edges.iterator
      .filter { case (u, v) => u != v }
      .map { case (u, v) => if (u < v) (u, v) else (v, u) }
      .toSeq.distinct
    val txRows = for {
      v    <- 0 until n
      (t, ti) <- txs(v).zipWithIndex
      item <- t.distinct
    } yield (v, txId(v, ti), item)
    DatabaseNetwork(
      spark.range(n).select($"id".cast("int") as "id"),
      canon.toDF("src", "dst"),
      txRows.toDF("vertexId", "txId", "item"),
    )
  }
}

/** Driver-side / broadcast-friendly view of a database network.
  *
  * Holds sorted adjacency arrays and, per vertex, the transaction list plus
  * an inverted index item → sorted tx indices, so that
  * f_i(p) = |∩_{s∈p} txIdx(i)(s)| / |d_i| is an intersection of sorted int
  * arrays — the hot loop of every miner.
  */
final case class CompactNetwork(
    adj: Array[Array[Int]],
    txs: Array[Array[Array[Int]]],
) extends Serializable {

  val n: Int = adj.length

  // The derived fields below are @transient: a broadcast then ships only
  // `adj` and `txs`, and each copy derives them again on first use.

  /** Canonical (src<dst) edge list. */
  @transient lazy val edgeList: Array[(Int, Int)] =
    (for { u <- adj.indices.iterator; v <- adj(u).iterator if u < v } yield (u, v)).toArray

  def nEdges: Int = edgeList.length

  /** item → sorted array of transaction indices, per vertex. */
  @transient lazy val txIndex: Array[Map[Int, Array[Int]]] = txs.map { db =>
    val m = scala.collection.mutable.Map.empty[Int, scala.collection.mutable.ArrayBuffer[Int]]
    for ((t, ti) <- db.zipWithIndex; item <- t)
      m.getOrElseUpdate(item, scala.collection.mutable.ArrayBuffer.empty[Int]) += ti
    m.iterator.map { case (k, v) => (k, v.toArray) }.toMap
  }

  /** All distinct items in S (those appearing in at least one transaction). */
  @transient lazy val items: Array[Int] =
    txs.iterator.flatMap(_.iterator.flatMap(_.iterator)).toArray.distinct.sorted

  private def intersectSize(lists: Seq[Array[Int]]): Int = {
    if (lists.isEmpty) return 0
    var acc = lists.minBy(_.length)
    for (l <- lists if !(l eq acc)) {
      val out = Array.newBuilder[Int]
      var i = 0; var j = 0
      while (i < acc.length && j < l.length) {
        if (acc(i) == l(j)) { out += acc(i); i += 1; j += 1 }
        else if (acc(i) < l(j)) i += 1
        else j += 1
      }
      acc = out.result()
      if (acc.isEmpty) return 0
    }
    acc.length
  }

  /** Frequency f_v(p): fraction of v's transactions containing pattern p.
    * f_v(∅) = 1 when v has at least one transaction (every transaction
    * contains the empty pattern), 0 for a vertex with an empty database.
    */
  def freq(v: Int, p: Vector[Int]): Double = {
    val db = txs(v)
    if (db.isEmpty) return 0.0
    if (p.isEmpty) return 1.0
    val idx = txIndex(v)
    val lists = p.map(idx.getOrElse(_, null))
    if (lists.exists(_ == null)) 0.0
    else intersectSize(lists).toDouble / db.length
  }

  /** Frequencies of p on every vertex, as a dense array. */
  def freqAll(p: Vector[Int]): Array[Double] =
    Array.tabulate(n)(freq(_, p))
}
