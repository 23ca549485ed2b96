package org.apache.spark

/** Tests read listener counts only after the asynchronous listener bus has
  * delivered every event; waiting for that is package-private in Spark.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
