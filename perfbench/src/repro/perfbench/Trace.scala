package repro.perfbench

import java.lang.management.{ManagementFactory, MemoryType}

import org.apache.spark.{PerfbenchAccess, SparkContext}
import org.apache.spark.scheduler._

import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** In-memory span log of one traced run. A span is (name, start, end,
  * parent); spans nest through a stack, so a span's parent is the span open
  * when it started. Totals and counters are aggregated per name as spans
  * close; `write` dumps the raw spans when the run ends.
  */
final class SpanLog {
  private val names = mutable.ArrayBuffer.empty[String]
  private val nameIds = mutable.HashMap.empty[String, Int]
  private var ids = new Array[Int](1 << 16)
  private var parents = new Array[Int](1 << 16)
  private var starts = new Array[Long](1 << 16)
  private var ends = new Array[Long](1 << 16)
  private var n = 0
  private var open = -1
  private val totals = mutable.HashMap.empty[String, Long].withDefaultValue(0L)
  private val counts = mutable.LinkedHashMap.empty[String, Double].withDefaultValue(0.0)

  def span[A](name: String)(body: => A): A = {
    if (n == ids.length) grow()
    val i = n; n += 1
    ids(i) = nameIds.getOrElseUpdate(name, { names += name; names.length - 1 })
    parents(i) = open
    open = i
    starts(i) = System.nanoTime()
    try body
    finally {
      ends(i) = System.nanoTime()
      open = parents(i)
      totals(name) += ends(i) - starts(i)
    }
  }

  private def grow(): Unit = {
    val m = ids.length * 2
    ids = java.util.Arrays.copyOf(ids, m); parents = java.util.Arrays.copyOf(parents, m)
    starts = java.util.Arrays.copyOf(starts, m); ends = java.util.Arrays.copyOf(ends, m)
  }

  /** Total seconds spent in spans called `name` (nested spans included). */
  def seconds(name: String): Double = totals(name) / 1e9

  def add(counter: String, v: Double): Unit = counts(counter) += v
  def max(counter: String, v: Double): Unit = counts(counter) = math.max(counts(counter), v)
  def count(counter: String): Double = counts(counter)

  def nSpans: Int = n

  /** One line per span: id, parent id, name, start and end in ns since the first span. */
  def write(path: java.nio.file.Path): Unit = {
    val t0 = if (n == 0) 0L else starts(0)
    val w = java.nio.file.Files.newBufferedWriter(path)
    try {
      w.write("id\tparent\tname\tstart_ns\tend_ns\n")
      for (i <- 0 until n)
        w.write(s"$i\t${parents(i)}\t${names(ids(i))}\t${starts(i) - t0}\t${ends(i) - t0}\n")
    } finally w.close()
  }
}

/** Spark layer of a traced run: a listener on the real SparkContext that
  * records job intervals and per-task times.
  */
final class SparkTrace(sc: SparkContext) extends SparkListener {
  private val jobStart = mutable.HashMap.empty[Int, Long]
  private val jobSpans = mutable.ArrayBuffer.empty[(Long, Long)]
  private val taskMs = mutable.HashMap.empty[Int, mutable.ArrayBuffer[Long]]
  private var taskTotalMs, schedMs, serMs, resultBytes = 0L

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized { jobStart(e.jobId) = e.time }
  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobStart.remove(e.jobId).foreach(s => jobSpans += ((s, e.time)))
  }
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val info = e.taskInfo; val m = e.taskMetrics
    if (m != null) {
      val d = info.duration
      taskMs.getOrElseUpdate(e.stageId, mutable.ArrayBuffer.empty) += d
      taskTotalMs += d
      val ser = m.executorDeserializeTime + m.resultSerializationTime
      serMs += ser
      schedMs += math.max(0L, d - m.executorRunTime - ser - info.gettingResultTime)
      resultBytes += m.resultSize
    }
  }

  def attach(): this.type = { sc.addSparkListener(this); this }
  def detach(): Unit = { PerfbenchAccess.drainListeners(sc); sc.removeSparkListener(this) }

  /** Union of job intervals, in seconds. */
  def jobSeconds: Double = synchronized {
    var total = 0L; var reach = Long.MinValue
    for ((s, e) <- jobSpans.sortBy(_._1)) {
      val from = math.max(s, reach)
      if (e > from) total += e - from
      reach = math.max(reach, e)
    }
    total / 1e3
  }

  /** Worst stage's max/median task time, over stages with at least two tasks. */
  def taskSkew: Double = synchronized {
    val ratios = taskMs.valuesIterator.filter(_.length >= 2).map { ts =>
      val s = ts.sorted
      val med = math.max(1L, s(s.length / 2))
      s.last.toDouble / med
    }
    if (ratios.isEmpty) 0.0 else ratios.max
  }

  def metrics(cores: Int): Seq[(String, Double)] = synchronized {
    val jobS = jobSeconds
    Seq(
      "spark.jobs" -> jobSpans.length.toDouble,
      "spark.job_s" -> jobS,
      "spark.task_s" -> taskTotalMs / 1e3,
      "spark.core_busy" -> (if (jobS > 0) taskTotalMs / 1e3 / (jobS * cores) else 0.0),
      "spark.task_skew" -> taskSkew,
      "spark.sched_delay_s" -> schedMs / 1e3,
      "spark.ser_s" -> serMs / 1e3,
      "spark.result_mb" -> resultBytes / 1e6,
    )
  }
}

/** JVM layer: GC time, bytes allocated and heap-pool peaks over a region. */
object Jvm {
  private val heapPools =
    ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP).toSeq
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  private def gcMs: Long = gcs.map(_.getCollectionTime).filter(_ >= 0).sum

  /** Runs `body` and returns its result with jvm.gc_s, jvm.alloc_mb and
    * jvm.heap_peak_mb (sum of the heap pools' peaks) for its duration.
    */
  def measure[A](body: => A): (A, Seq[(String, Double)]) = {
    heapPools.foreach(_.resetPeakUsage())
    val gc0 = gcMs; val alloc0 = threads.getTotalThreadAllocatedBytes
    val r = body
    val alloc = threads.getTotalThreadAllocatedBytes - alloc0
    val peak = heapPools.map(_.getPeakUsage.getUsed).sum
    (r, Seq("jvm.gc_s" -> (gcMs - gc0) / 1e3, "jvm.alloc_mb" -> alloc / 1e6, "jvm.heap_peak_mb" -> peak / 1e6))
  }

  /** Used heap after full GCs, repeated until two readings agree within 1 MB. */
  def settledHeapBytes(): Long = {
    val mem = ManagementFactory.getMemoryMXBean
    def read(): Long = { System.gc(); mem.getHeapMemoryUsage.getUsed }
    var prev = read(); var cur = read(); var i = 2
    while (i < 10 && math.abs(cur - prev) > (1L << 20)) { prev = cur; cur = read(); i += 1 }
    cur
  }

  /** Retained heap of the value `make` returns, in MB, for a value the
    * caller keeps: settled heap after `make` minus settled heap before.
    */
  def retainedMb[A](make: => A): (A, Double) = {
    val before = settledHeapBytes()
    val r = make
    val after = settledHeapBytes()
    java.lang.ref.Reference.reachabilityFence(r)
    (r, (after - before) / 1e6)
  }

  /** Retained heap of the value `make` returns, in MB, for a value used
    * once by `use` and then dropped: settled heap while it is held minus
    * settled heap after dropping it. Both readings come after `make`, so
    * state Spark keeps from the run appears in both and cancels out.
    */
  def droppedMb[A](make: => A)(use: A => Unit): Double = {
    val holder = new Array[Any](1)
    fill(holder, make, use)
    val held = settledHeapBytes()
    holder(0) = null
    (held - settledHeapBytes()) / 1e6
  }

  private def fill[A](holder: Array[Any], make: => A, use: A => Unit): Unit = {
    val r = make
    holder(0) = r
    use(r)
  }
}
