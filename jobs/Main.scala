package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.harness.Experiments
import repro.netgen.NetGen

/** The spark-submit entry point: one sub-command per paper table/figure,
  * each printing its rows.
  *
  *   spark-submit --class repro.jobs.Main <jar> table2|table3|table4|fig3|fig4|fig5
  */
object Main {

  val Usage = "usage: spark-submit --class repro.jobs.Main <jar> table2|table3|table4|fig3|fig4|fig5"

  /** The program's SparkSession: master from SPARK_MASTER (default
    * `local[*]`), no UI. The tests build theirs here too.
    */
  def session(appName: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(appName)
      .config("spark.ui.enabled", false)
      .getOrCreate()

  private def withSpark(appName: String)(body: SparkSession => Unit): Unit = {
    val spark = session(appName)
    try body(spark) finally spark.stop()
  }

  /** Table 2 needs no Spark; the others each run in their own session. */
  private val commands: Map[String, () => Unit] = Map(
    "table2" -> (() => {
      println("== Table 2: statistics of the database networks ==")
      println(Experiments.formatTable2(Experiments.table2()))
    }),
    "table3" -> (() => withSpark("table3-indexing") { spark =>
      println("== Table 3: indexing performance of TC-Tree ==")
      println(Experiments.formatTable3(Experiments.table3(spark)))
    }),
    // Theme communities with named keyword sets on the AMINER-like network.
    "table4" -> (() => withSpark("table4-case-study") { spark =>
      println("== Table 4 / Figure 6: theme communities on AMINER-like ==")
      println(Experiments.formatCaseStudy(Experiments.caseStudy(spark, NetGen.aminerLike())))
    }),
    // Effect of α and the TCS threshold ε on BFS-sampled networks.
    "fig3" -> (() => withSpark("fig3-param-sweep") { spark =>
      Experiments.fig3Samples.foreach(Experiments.printFig3(spark, _))
    }),
    // Runtime and truss sizes vs. BFS-sampled edges at the worst case α = 0.
    "fig4" -> (() => withSpark("fig4-scalability") { spark =>
      Experiments.fig4Series.foreach(Experiments.printFig4(spark, _))
    }),
    // TC-Tree queries: Query-by-Alpha (q = S, ascending α_q) and
    // Query-by-Pattern (α_q = 0, patterns sampled per tree layer).
    "fig5" -> (() => withSpark("fig5-query") { spark =>
      Experiments.fig5Datasets.foreach(Experiments.printFig5(spark, _))
    }),
  )

  /** Runs the sub-command in `args` and returns the exit status: 0, or 2
    * after printing the usage when `args` is not one known sub-command.
    */
  def run(args: Seq[String]): Int = args match {
    case Seq(cmd) if commands.contains(cmd) => commands(cmd)(); 0
    case _                                  => Console.err.println(Usage); 2
  }

  def main(args: Array[String]): Unit = {
    val status = run(args.toSeq)
    if (status != 0) sys.exit(status)
  }
}
