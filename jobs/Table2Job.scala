package repro.jobs

import repro.eval.Harness

/** Reproduces Table 2: distribution of error types across the Hospital and
  * Movies benchmarks, counted from the generators' cell labels.
  */
object Table2Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession("cocoon-table2")
    println("Table 2: distribution of error types (paper: Hospital 1000x19, Movies 7390x17)")
    for (name <- Seq("hospital", "movies")) {
      val ds = Harness.dataset(spark, name)
      val rows = ds.dirty.count()
      val cols = ds.dataColumns.size + 1
      val counts = ds.errorTypeCounts
      val line = Seq("typo", "fd", "coltype", "inconsistency", "dmv", "misplacement")
        .map(t => s"$t=${counts.getOrElse(t, 0L)}").mkString(" ")
      println(f"[table2] $name%-9s size=${rows}x$cols $line")
    }
    spark.stop()
  }
}
