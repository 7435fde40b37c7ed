package repro

import org.duckdb.DuckDBConnection

import java.sql.DriverManager

/** DuckDB correctness oracle: an independent, in-process SQL engine that
  * the kernels' results are checked against row for row.
  *
  * Tables are loaded from local rows with typed columns (INT, BIGINT or
  * DOUBLE), so the SQL reads them as they are, with no casts. Results come
  * back as rows of `java.lang.Long` (every integral type) and
  * `java.lang.Double`. Two row multisets are equal when, sorted, they agree
  * value by value: integers exactly, doubles within `Tolerance`.
  */
object Oracle {

  /** Largest difference at which two doubles count as equal. */
  val Tolerance = 1e-9

  private val Types = Set("INT", "BIGINT", "DOUBLE")

  /** A table to load: its columns as (name, type) and its rows, one value
    * per column, each a number.
    */
  final case class Table(name: String, columns: Seq[(String, String)], rows: Iterable[Seq[Any]]) {
    require(columns.forall(c => Types(c._2)), s"column types must be one of $Types: $columns")
  }

  /** One in-memory DuckDB database, open for the duration of `withDb`. */
  final class Db private[Oracle] (conn: DuckDBConnection) {

    /** Creates `t`, replacing any table of that name, and appends its rows. */
    def load(t: Table): Unit = {
      execute(s"CREATE OR REPLACE TABLE ${t.name} (${t.columns.map(c => s"${c._1} ${c._2}").mkString(", ")})")
      val app = conn.createAppender(DuckDBConnection.DEFAULT_SCHEMA, t.name)
      try for (row <- t.rows) {
        require(row.length == t.columns.length, s"${t.name}: row $row has ${row.length} values")
        app.beginRow()
        for ((v, (_, tpe)) <- row.zip(t.columns)) {
          val x = v.asInstanceOf[Number]
          tpe match {
            case "INT"    => app.append(x.intValue)
            case "BIGINT" => app.append(x.longValue)
            case _        => app.append(x.doubleValue)
          }
        }
        app.endRow()
      } finally app.close()
    }

    def execute(sql: String): Unit = {
      val st = conn.createStatement()
      try st.execute(sql) finally st.close()
    }

    /** Runs a DELETE/INSERT/UPDATE with `params` bound in order and returns
      * how many rows it changed.
      */
    def update(sql: String, params: Double*): Int = {
      val ps = conn.prepareStatement(sql)
      try {
        params.zipWithIndex.foreach { case (p, i) => ps.setDouble(i + 1, p) }
        ps.executeUpdate()
      } finally ps.close()
    }

    def query(sql: String): Vector[Vector[Any]] = {
      val st = conn.createStatement()
      try {
        val rs = st.executeQuery(sql)
        val nCols = rs.getMetaData.getColumnCount
        val out = Vector.newBuilder[Vector[Any]]
        while (rs.next()) out += Vector.tabulate(nCols)(i => normal(rs.getObject(i + 1)))
        out.result()
      } finally st.close()
    }
  }

  /** Runs `body` on a fresh in-memory database holding `tables`. */
  def withDb[A](tables: Table*)(body: Db => A): A = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:").asInstanceOf[DuckDBConnection]
    try {
      val db = new Db(conn)
      tables.foreach(db.load)
      body(db)
    } finally conn.close()
  }

  /** The rows `sql` returns over `tables`. */
  def query(sql: String, tables: Table*): Vector[Vector[Any]] = withDb(tables: _*)(_.query(sql))

  /** Asserts that two row multisets are equal (see `Oracle`), columns in
    * select order; `what` names the case in the failure message.
    */
  def assertSameRows(got: Iterable[Seq[Any]], expected: Iterable[Seq[Any]], what: => String = ""): Unit = {
    val g = canon(got)
    val e = canon(expected)
    assert(g.length == e.length && g.zip(e).forall { case (a, b) => sameRow(a, b) },
      s"$what result mismatch (${g.size} vs ${e.size} rows):\n" +
      s"  first got-only:      ${g.filterNot(r => e.exists(sameRow(r, _))).take(3)}\n" +
      s"  first expected-only: ${e.filterNot(r => g.exists(sameRow(r, _))).take(3)}")
  }

  private def sameRow(a: Vector[Any], b: Vector[Any]): Boolean =
    a.length == b.length && a.zip(b).forall { case (x, y) => sameValue(x, y) }

  private def sameValue(x: Any, y: Any): Boolean = (x, y) match {
    case (a: java.lang.Long, b: java.lang.Long) => a == b
    case (a: Number, b: Number)                 => math.abs(a.doubleValue - b.doubleValue) <= Tolerance
    case _                                      => x == y
  }

  /** A value as the oracle compares it: integral numbers as `Long`, the
    * others as `Double`, and null as it is.
    */
  private def normal(v: Any): Any = v match {
    case null                     => null
    case i: java.math.BigInteger  => i.longValueExact
    case d: java.math.BigDecimal  => d.doubleValue
    case d: java.lang.Double      => d
    case f: java.lang.Float       => f.doubleValue
    case x: Number                => x.longValue
    case other                    => throw new IllegalArgumentException(s"not a number: $other (${other.getClass})")
  }

  private val valueOrder: Ordering[Any] = (x: Any, y: Any) => (x, y) match {
    case (null, null)                           => 0
    case (null, _)                              => -1
    case (_, null)                              => 1
    case (a: java.lang.Long, b: java.lang.Long) => java.lang.Long.compare(a, b)
    case (a: Number, b: Number)                 => java.lang.Double.compare(a.doubleValue, b.doubleValue)
    case _                                      => throw new IllegalArgumentException(s"cannot order $x and $y")
  }

  /** Rows normalised and sorted on their column sequence, column by column. */
  private[repro] def canon(rows: Iterable[Seq[Any]]): Vector[Vector[Any]] =
    rows.iterator.map(_.iterator.map(normal).toVector).toVector.sorted(Ordering.Implicits.seqOrdering[Vector, Any](valueOrder))
}
