package repro

import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite

/** Base for the suites that run Spark: one SparkSession for the whole run,
  * built by the entry point's builder (`repro.jobs.Main.session`). The
  * driver heap is set via `Test / javaOptions` in build.sbt from
  * SPARK_DRIVER_MEM.
  */
trait SparkSpec extends AnyFunSuite {
  lazy val spark: SparkSession = SparkSpec.shared
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = repro.jobs.Main.session("repro")
    // One line in the test output: the driver memory, master and
    // parallelism the run used.
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
