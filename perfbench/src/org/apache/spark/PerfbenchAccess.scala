package org.apache.spark

/** Reaches Spark's package-private listener bus so the benchmark can wait
  * until every event of a finished job has reached its listener.
  */
object PerfbenchAccess {
  def drainListeners(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
