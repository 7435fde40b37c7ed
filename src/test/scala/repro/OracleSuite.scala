package repro

import org.scalatest.funsuite.AnyFunSuite
import repro.Oracle.Table

/** The DuckDB oracle's own plumbing: typed loading, row comparison and the
  * row sort it compares after.
  */
class OracleSuite extends AnyFunSuite {

  private val typed = Table("t", Seq("i" -> "INT", "b" -> "BIGINT", "d" -> "DOUBLE"),
                            Seq(Seq(1, 1L << 40, 0.25), Seq(-2, 3L, 1.0 / 3)))

  test("typed columns load as they are: integer and double arithmetic needs no casts") {
    Oracle.assertSameRows(Seq(Seq(-1, (1L << 40) + 3, 0.25 + 1.0 / 3), Seq(2, 2, 0.5)),
      Oracle.query("SELECT SUM(i), SUM(b), SUM(d) FROM t UNION ALL SELECT COUNT(*), 2, 1 / 2 FROM t", typed))
  }

  test("equal row multisets compare equal whatever their order; different ones do not") {
    val rows = Oracle.query("SELECT i, b, d FROM t", typed)
    Oracle.assertSameRows(Seq(Seq(-2, 3L, 1.0 / 3 + 1e-12), Seq(1, 1L << 40, 0.25)), rows)
    for (wrong <- Seq(Seq(Seq(1, 1L << 40, 0.25)), Seq(Seq(1, 1L << 40, 0.25), Seq(-2, 4L, 1.0 / 3)),
                      Seq(Seq(1, 1L << 40, 0.25), Seq(-2, 3L, 1.0 / 3 + 1e-6))))
      intercept[AssertionError](Oracle.assertSameRows(wrong, rows))
  }

  test("rows are sorted on their columns, not on their concatenated text") {
    // ("1", "23") and ("12", "3") both concatenate to "123".
    val a = Seq(Seq(1, 23), Seq(12, 3))
    assert(Oracle.canon(a) == Oracle.canon(a.reverse))
    val t = Table("r", Seq("x" -> "INT", "y" -> "INT"), a)
    Oracle.assertSameRows(a.reverse, Oracle.query("SELECT x, y FROM r", t))
  }
}
