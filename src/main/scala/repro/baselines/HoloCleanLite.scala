package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.datasets.BenchDataset
import repro.eval.{CleaningSystem, LocalTable}

/** Reimplementation of HoloClean's mechanism [Rekatsinas et al. 2017] as the
  * paper characterises it: "its error detection relies heavily on integrity
  * constraints provided by the user". Given ground-truth denial constraints
  * (single-attribute FDs), it marks cells in violating groups and repairs
  * them to the group's strict-majority value — the MAP assignment of its
  * probabilistic model under co-occurrence features.
  *
  * Two paper-documented behaviours are preserved:
  *   - on datasets larger than 5,000 rows it works on the first 1,000 rows
  *     only (the Movies OOM footnote);
  *   - it has no semantic gate, so a name-keyed constraint repairs the
  *     "wrong side" of a violation (the Beers low-precision failure), and it
  *     repairs legitimate in-group minorities (the Movies sample).
  */
final class HoloCleanLite extends CleaningSystem {

  override def name: String = "HoloClean"

  private val SampleThreshold = 5000
  private val SampleSize      = 1000
  private val MajorityShare   = 0.5

  override def clean(spark: SparkSession, ds: BenchDataset): DataFrame = {
    val t = LocalTable.collect(ds)
    val limit = if (t.n > SampleThreshold) SampleSize else t.n

    // Repairs computed from the (possibly sampled) dirty state, then applied.
    val repairs = scala.collection.mutable.Map.empty[(Int, String), String]
    for ((lhs, rhs) <- ds.fdConstraints if t.colIdx.contains(lhs) && t.colIdx.contains(rhs)) {
      val groups = LocalTable.groupRhs(t, lhs, rhs, limit)
      for (r <- 0 until limit) {
        val lv = t.value(r, lhs); val rv = t.value(r, rhs)
        if (lv != null && rv != null) {
          val g = groups(lv)
          if (g.size > 1) {
            val total = g.values.sum
            val (top, topN) = g.maxBy { case (v, n) => (n, v) }
            if (topN.toDouble / total > MajorityShare && rv != top)
              repairs((r, rhs)) = top
          }
        }
      }
    }
    repairs.foreach { case ((r, c), v) => t.set(r, c, v) }
    t.toDf(spark, ds.keyCol)
  }
}
