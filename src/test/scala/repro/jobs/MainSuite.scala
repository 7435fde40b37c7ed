package repro.jobs

import org.scalatest.funsuite.AnyFunSuite

import java.io.ByteArrayOutputStream

/** The entry point's sub-command dispatch. */
class MainSuite extends AnyFunSuite {

  /** The exit status of `Main.run(args)` and what it printed to stdout and stderr. */
  private def run(args: String*): (Int, String, String) = {
    val out = new ByteArrayOutputStream
    val err = new ByteArrayOutputStream
    val status = Console.withOut(out)(Console.withErr(err)(Main.run(args)))
    (status, out.toString, err.toString)
  }

  test("an unknown, missing or extra sub-command prints the usage and fails") {
    for (args <- Seq(Seq("table9"), Seq.empty, Seq("table2", "fig3"))) {
      val (status, out, err) = run(args: _*)
      assert(status != 0, args)
      assert(out.isEmpty && err.trim == Main.Usage, args)
    }
  }

  test("table2 prints one row per dataset") {
    val (status, out, _) = run("table2")
    assert(status == 0)
    val lines = out.linesIterator.toVector
    assert(lines.length == 6, out)
    assert(lines.drop(2).map(_.split("\\s+").head) == Vector("BK", "GW", "AMINER", "SYN"))
  }
}
