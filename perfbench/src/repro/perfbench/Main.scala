package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.file.Paths

import org.apache.spark.sql.SparkSession
import repro.core.CompactNetwork
import repro.netgen.GenNet

import scala.collection.mutable
import scala.jdk.CollectionConverters._

final case class Opts(workload: String, seed: Long, seconds: Int, trace: Boolean,
                      genSeed: Option[Long], workDir: String)

object Opts {
  def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def get(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"--$k is required"))
    Opts(get("workload"), get("seed").toLong, get("seconds").toInt, get("trace") == "1",
         kv.get("gen-seed").map(_.toLong), get("work-dir"))
  }
}

/** The metrics each run reports, with their units. Every workload reports
  * all of them; a per-layer counter a workload never exercises reads 0.
  *
  * The gated timing is `ops_per_s` = 1 / the median wall time of one
  * operation (a TCFI run, a TC-Tree build or a query batch), so a few
  * operations slowed by other load on a shared host do not move it.
  * Medians and p99s per query type are in the report line. Failures are
  * gated as `ok_frac` = 1 − failed/attempted so the metric is never 0.
  */
object Metrics {
  val endToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s", "ops_per_s" -> "1/s", "result_mb" -> "MB", "ok_frac" -> "ratio")

  val perLayer: Seq[(String, String)] = Seq(
    "spark.session_s" -> "s", "spark.jobs" -> "count", "spark.job_s" -> "s", "spark.task_s" -> "s",
    "spark.core_busy" -> "ratio", "spark.task_skew" -> "ratio", "spark.sched_delay_s" -> "s",
    "spark.ser_s" -> "s", "spark.result_mb" -> "MB",
    "miners.driver_s" -> "s", "miners.levels" -> "count", "miners.candidates" -> "count",
    "miners.mptd_calls" -> "count", "miners.pruned" -> "count", "miners.prune_ratio" -> "ratio",
    "miners.serial_s" -> "s", "miners.vs_serial" -> "ratio",
    "pattern.join_s" -> "s", "pattern.join_out" -> "count",
    "localtruss.intersect_calls" -> "count", "localtruss.intersect_s" -> "s",
    "localtruss.intersect_edges_in" -> "count", "localtruss.intersect_empty" -> "count",
    "model.compact_s" -> "s", "model.freq_calls" -> "count", "model.freq_s" -> "s",
    "localtruss.induce_s" -> "s", "localtruss.mptd_calls" -> "count", "localtruss.mptd_s" -> "s",
    "localtruss.mptd_edges_in" -> "count", "localtruss.mptd_edges_in_max" -> "count",
    "localtruss.mptd_edges_out" -> "count", "localtruss.mptd_yield" -> "ratio",
    "localtruss.decompose_calls" -> "count", "localtruss.decompose_s" -> "s",
    "localtruss.decompose_steps" -> "count", "localtruss.decompose_edges_in" -> "count",
    "localtruss.decompose_edges_in_max" -> "count",
    "tctree.driver_s" -> "s", "tctree.nodes" -> "count", "tctree.depth" -> "count",
    "tctree.sibling_pairs" -> "count", "tctree.sibling_empty" -> "count", "tctree.intersect_s" -> "s",
    "tctree.serial_build_s" -> "s", "tctree.vs_serial" -> "ratio",
    "tctree.visited" -> "count", "tctree.retrieved" -> "count", "tctree.retrieve_ratio" -> "ratio",
    "tctree.us_per_node" -> "us", "localtruss.trussat_calls" -> "count", "localtruss.trussat_s" -> "s",
    "localtruss.cc_s" -> "s",
    "netgen.gen_s" -> "s",
    "jvm.gc_s" -> "s", "jvm.alloc_mb" -> "MB", "jvm.heap_peak_mb" -> "MB",
    "trace.overhead_s" -> "s",
  )
}

/** State of one benchmark run: the session, the checks made so far, and
  * the figures each workload fills in.
  */
final class Run(val spark: SparkSession, val opts: Opts, val sessionS: Double) {
  /** Set-ups per run; `setup_s` is their median. Later set-ups also warm the JIT. */
  val SetupReps = 3
  /** Fewest timed operations per run, even past `--seconds`. */
  val MinSamples = 3

  val cores: Int = spark.sparkContext.defaultParallelism
  var attempted = 0L
  var failed = 0L
  val endToEnd = mutable.LinkedHashMap.empty[String, Double]
  val layers = mutable.LinkedHashMap.empty[String, Double]
  val report = mutable.LinkedHashMap.empty[String, Any]

  /** One checked operation: counts as failed unless `ok`. */
  def check(what: String, ok: Boolean, detail: => String = ""): Unit = synchronized {
    attempted += 1
    if (!ok) { failed += 1; Console.err.println(s"perfbench: check failed: $what $detail") }
  }

  def setLayers(kvs: Iterable[(String, Double)]): Unit = kvs.foreach { case (k, v) =>
    require(Metrics.perLayer.exists(_._1 == k), s"unknown per-layer metric $k")
    layers(k) = v
  }

  /** Runs the set-up `SetupReps` times and returns the last one's value
    * with `setup_s`: session start plus the median set-up wall time.
    */
  def setup[A](rep: => A): A = {
    var last: Option[A] = None
    val walls = (1 to SetupReps).map { _ =>
      last = None
      val (a, s) = Run.timed(rep)
      last = Some(a)
      s
    }
    endToEnd("setup_s") = sessionS + Run.median(walls)
    report("setup_rep_s") = walls
    last.get
  }

  /** Generates a network, relabels it by `--seed` and compacts it. */
  def prepare(gen: => GenNet): (Relabelled, CompactNetwork) = {
    val (rel, genS) = Run.timed(Inputs.relabel(gen, opts.seed))
    val (net, compactS) = Run.timed(rel.net.compact)
    setLayers(Seq("netgen.gen_s" -> genS, "model.compact_s" -> compactS, "spark.session_s" -> sessionS))
    (rel, net)
  }

  /** Loops `op` until `--seconds` have passed and at least `min` ops ran. */
  def loop(min: Int)(op: => Unit): Unit = {
    val t0 = System.nanoTime()
    var n = 0
    while (n < min || System.nanoTime() - t0 < opts.seconds * 1000000000L) { op; n += 1 }
  }

  def spanFile(): java.nio.file.Path =
    Paths.get(opts.workDir, s"spans-${opts.workload}-seed${opts.seed}.tsv")
}

object Run {
  def timed[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r = f
    (r, (System.nanoTime() - t0) / 1e9)
  }

  def median(xs: collection.Seq[Double]): Double = {
    val s = xs.sorted; val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** Nearest-rank percentile, q in (0, 1]. */
  def percentile(xs: collection.Seq[Double], q: Double): Double = {
    val s = xs.sorted
    s(math.max(0, math.ceil(q * s.length).toInt - 1))
  }
}

object Main {
  def main(args: Array[String]): Unit = {
    val opts = Opts.parse(args)
    val workload: Run => Unit = opts.workload match {
      case "mine-aminer"  => MineAminer.run
      case "index-syn"    => IndexSyn.run
      case "query-aminer" => QueryAminer.run
      case w              => throw new IllegalArgumentException(s"unknown workload $w")
    }
    val cores = Runtime.getRuntime.availableProcessors()
    val (spark, sessionS) = Run.timed(
      SparkSession.builder
        .master(s"local[$cores]")
        .appName("perfbench")
        .config("spark.ui.enabled", false)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.local.dir", Paths.get(opts.workDir, "spark-local").toString)
        .config("spark.sql.warehouse.dir", Paths.get(opts.workDir, "spark-warehouse").toString)
        .getOrCreate())
    spark.sparkContext.setLogLevel("WARN")
    val run = new Run(spark, opts, sessionS)
    try workload(run)
    finally spark.stop()

    val rt = ManagementFactory.getRuntimeMXBean
    val env = mutable.LinkedHashMap[String, Any](
      "cores" -> cores,
      "spark_master" -> s"local[$cores]",
      "spark_version" -> spark.version,
      "jvm" -> s"${rt.getVmName} ${System.getProperty("java.version")}",
      "max_heap_mb" -> Runtime.getRuntime.maxMemory / 1e6,
      "jvm_args" -> rt.getInputArguments.asScala.filter(a => a.startsWith("-X")).toSeq,
      "setup_reps" -> run.SetupReps,
      "seed" -> opts.seed,
      "gen_seed" -> opts.genSeed.getOrElse("default"),
      "seconds" -> opts.seconds,
      "trace" -> opts.trace,
    )
    run.endToEnd("ok_frac") = (run.attempted - run.failed).toDouble / math.max(1L, run.attempted)
    println(Json(mutable.LinkedHashMap[String, Any](
      "workload" -> opts.workload, "env" -> env, "report" -> run.report)))

    val chosen = if (opts.trace) Metrics.perLayer else Metrics.endToEnd
    val values = if (opts.trace) run.layers else run.endToEnd
    val metrics = mutable.LinkedHashMap.empty[String, Any]
    for ((name, unit) <- chosen)
      metrics(name) = mutable.LinkedHashMap("value" -> values.getOrElse(name, 0.0), "unit" -> unit)
    println(Json(mutable.LinkedHashMap[String, Any](
      "correct" -> (run.failed == 0 && run.attempted > 0),
      "attempted" -> math.max(1L, run.attempted),
      "failed" -> run.failed,
      "metrics" -> metrics)))
  }
}

/** Minimal JSON writer for the benchmark's output lines. */
object Json {
  def apply(v: Any): String = v match {
    case null                 => "null"
    case s: String            => quote(s)
    case b: Boolean           => b.toString
    case i: Int               => i.toString
    case l: Long              => l.toString
    case d: Double            => if (d.isNaN || d.isInfinite) "null" else d.toString
    case m: collection.Map[_, _] =>
      m.iterator.map { case (k, x) => quote(k.toString) + ":" + apply(x) }.mkString("{", ",", "}")
    case xs: Iterable[_]      => xs.iterator.map(apply).mkString("[", ",", "]")
    case other                => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    b += '"'
    b.toString
  }
}
