package org.apache.spark

/** The one package-private Spark call the benchmark needs: listener events
  * are delivered asynchronously, so counts are read only after the bus has
  * drained.
  */
object PerfbenchAccess {
  def drainListeners(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
