package repro

import repro.Oracle.{Db, Table}
import repro.core.{Decomposition, LocalTruss}
import repro.netgen.GenNet

/** A database network as DuckDB tables, and the paper's definitions as SQL
  * over them: the independent second implementation the kernels are checked
  * against. Nothing here calls a kernel.
  *
  * `withNetwork` loads a `GenNet` as given, before `compact` canonicalises it:
  *  - `vertices(id)`, ids `0 until n`;
  *  - `edges(src, dst)`, any orientation, duplicates and self-loops included;
  *  - `transactions(v, tx)`, one row per transaction, empty ones included;
  *  - `tx_items(v, tx, item)`, one row per item occurrence.
  *
  * and derives from them, as views, `net_edges(src, dst)` (canonical,
  * distinct, no self-loops) and, for the pattern in table `pattern(item)`
  * (`usePattern`), `pattern_freq(v, f)` = f_v(p) on every vertex and
  * `theme(src, dst)` = the edges of G_p.
  *
  * `triangles`, `edgeCohesion`, the MPTD fixed point `mptd` and the
  * Theorem 6.1 decomposition `decompose` read the edges of table
  * `g(src, dst)` (canonical, src < dst) and the frequencies of table
  * `freq(v, f)`.
  */
object NetworkSql {

  def withNetwork[A](net: GenNet)(body: Db => A): A =
    Oracle.withDb(
      Table("vertices", Seq("id" -> "INT"), (0 until net.n).map(Seq(_))),
      Table("edges", Seq("src" -> "INT", "dst" -> "INT"), net.edges.map(e => Seq(e._1, e._2))),
      Table("transactions", Seq("v" -> "INT", "tx" -> "INT"),
            for (v <- 0 until net.n; tx <- net.txs(v).indices) yield Seq(v, tx)),
      Table("tx_items", Seq("v" -> "INT", "tx" -> "INT", "item" -> "INT"),
            for (v <- 0 until net.n; (t, tx) <- net.txs(v).zipWithIndex; item <- t) yield Seq(v, tx, item)),
      Table("pattern", Seq("item" -> "INT"), Nil),
    ) { db =>
      db.execute(
        """CREATE VIEW net_edges AS
          |SELECT DISTINCT LEAST(src, dst) AS src, GREATEST(src, dst) AS dst FROM edges WHERE src <> dst""".stripMargin)
      // A transaction contains p when no item of p is missing from it, so
      // every transaction contains p = ∅ and f_v(∅) = 1 unless d_v is empty.
      db.execute(
        """CREATE VIEW pattern_freq AS
          |WITH n AS (SELECT v, COUNT(*) AS n_tx FROM transactions GROUP BY v),
          |     hit AS (SELECT v, COUNT(*) AS n_hit FROM transactions t
          |             WHERE NOT EXISTS (SELECT 1 FROM pattern p WHERE NOT EXISTS (
          |                     SELECT 1 FROM tx_items i WHERE i.v = t.v AND i.tx = t.tx AND i.item = p.item))
          |             GROUP BY v)
          |SELECT id AS v, CASE WHEN n.n_tx IS NULL THEN 0.0 ELSE COALESCE(hit.n_hit, 0) / n.n_tx END AS f
          |FROM vertices LEFT JOIN n ON n.v = id LEFT JOIN hit ON hit.v = id""".stripMargin)
      db.execute(
        """CREATE VIEW theme AS
          |SELECT e.src, e.dst FROM net_edges e
          |JOIN pattern_freq a ON a.v = e.src JOIN pattern_freq b ON b.v = e.dst
          |WHERE a.f > 0 AND b.f > 0""".stripMargin)
      body(db)
    }

  /** Makes `p` the pattern the views `pattern_freq` and `theme` are of. */
  def usePattern(db: Db, p: Seq[Int]): Unit =
    db.load(Table("pattern", Seq("item" -> "INT"), p.map(Seq(_))))

  /** f_v(p) of every vertex: (v, f). */
  val frequencies = "SELECT v, f FROM pattern_freq"

  /** The edges of G_p: (src, dst). */
  val themeNetwork = "SELECT src, dst FROM theme"

  /** The Table 2 row: vertices, edges, transactions holding an item, items
    * distinct within each transaction, and distinct items.
    */
  val stats =
    """SELECT (SELECT COUNT(*) FROM vertices),
      |       (SELECT COUNT(*) FROM net_edges),
      |       (SELECT COUNT(*) FROM (SELECT DISTINCT v, tx FROM tx_items)),
      |       (SELECT COUNT(*) FROM (SELECT DISTINCT v, tx, item FROM tx_items)),
      |       (SELECT COUNT(DISTINCT item) FROM tx_items)""".stripMargin

  /** Every triangle of `g` once, as (a, b, c) with a < b < c. */
  val triangles =
    """SELECT e1.src AS a, e1.dst AS b, e2.dst AS c
      |FROM g e1 JOIN g e2 ON e2.src = e1.dst JOIN g e3 ON e3.src = e1.src AND e3.dst = e2.dst""".stripMargin

  /** Definition 3.1 on every edge of `g`: (src, dst, eco), where eco sums
    * min(f_a, f_b, f_c) over the triangles holding the edge (0 for none).
    */
  val edgeCohesion =
    s"""WITH tri AS ($triangles),
       |     tm AS (SELECT a, b, c, LEAST(fa.f, fb.f, fc.f) AS m FROM tri
       |            JOIN freq fa ON fa.v = a JOIN freq fb ON fb.v = b JOIN freq fc ON fc.v = c),
       |     part AS (SELECT a AS src, b AS dst, m FROM tm
       |              UNION ALL SELECT a, c, m FROM tm
       |              UNION ALL SELECT b, c, m FROM tm)
       |SELECT g.src, g.dst, COALESCE(SUM(part.m), 0.0) AS eco
       |FROM g LEFT JOIN part ON part.src = g.src AND part.dst = g.dst
       |GROUP BY g.src, g.dst""".stripMargin

  /** The maximal pattern truss C*(α) of `g`, as a fixed point: each round is
    * one DELETE of every edge whose cohesion in the current `g` is
    * ≤ α + `LocalTruss.Eps` (the tie rule of Algorithm 1), until a round
    * deletes nothing. Peels `g` in place and returns its surviving edges
    * with their cohesions: (src, dst, eco).
    */
  def mptd(db: Db, alpha: Double): Vector[Vector[Any]] = {
    db.execute(s"CREATE OR REPLACE VIEW cohesion AS $edgeCohesion")
    while (db.update(
      """DELETE FROM g WHERE EXISTS (
        |  SELECT 1 FROM cohesion c WHERE c.src = g.src AND c.dst = g.dst AND c.eco <= ?)""".stripMargin,
      alpha + LocalTruss.Eps) > 0) {}
    db.query("SELECT src, dst, eco FROM cohesion")
  }

  /** Theorem 6.1 on `g`: peel it to C*(0), then, while edges remain, take
    * the least cohesion β in the current `g`, peel at β and record the edges
    * that peel removed as R(β). Peels `g` to empty and returns one
    * (src, dst, β) row per edge of C*(0).
    */
  def decompose(db: Db): Vector[Vector[Any]] = {
    var left = edgeSet(mptd(db, 0.0))
    val out = Vector.newBuilder[Vector[Any]]
    while (left.nonEmpty) {
      val beta = db.query("SELECT MIN(eco) FROM cohesion").head.head.asInstanceOf[Double]
      val kept = edgeSet(mptd(db, beta))
      for ((u, v) <- left -- kept) out += Vector(u, v, beta)
      left = kept
    }
    out.result()
  }

  /** A kernel decomposition as the rows `decompose` returns. */
  def decompositionRows(d: Decomposition): Vector[Vector[Any]] =
    d.nodes.flatMap { case (beta, es) => es.map(e => Vector(e._1, e._2, beta)) }

  /** C*_p(α) of the network's theme network G_p, all in SQL: (src, dst, eco). */
  def themeMptd(db: Db, p: Seq[Int], alpha: Double): Vector[Vector[Any]] = {
    usePattern(db, p)
    db.execute("CREATE OR REPLACE TABLE g AS SELECT src, dst FROM theme")
    db.execute("CREATE OR REPLACE TABLE freq AS SELECT v, f FROM pattern_freq")
    mptd(db, alpha)
  }

  /** (src, dst, …) rows as their edges. */
  def edgeSet(rows: Seq[Seq[Any]]): Set[(Int, Int)] = rows.map(r => (int(r(0)), int(r(1)))).toSet

  /** (src, dst, eco) rows as a map from edge to cohesion. */
  def cohesions(rows: Seq[Seq[Any]]): Map[(Int, Int), Double] =
    rows.map(r => (int(r(0)), int(r(1))) -> r(2).asInstanceOf[Double]).toMap

  def int(v: Any): Int = v.asInstanceOf[Long].toInt

  /** `g` and `freq` as tables, for the queries over them. */
  def edgeTables(edges: Iterable[(Int, Int)], freq: Iterable[(Int, Double)]): Seq[Table] = Seq(
    Table("g", Seq("src" -> "INT", "dst" -> "INT"), edges.map(e => Seq(e._1, e._2))),
    Table("freq", Seq("v" -> "INT", "f" -> "DOUBLE"), freq.map(f => Seq(f._1, f._2))),
  )
}
