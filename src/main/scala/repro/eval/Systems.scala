package repro.eval

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.datasets.BenchDataset

/** A cleaning system under evaluation: dirty table in, repaired table out,
  * same schema and rows.
  */
trait CleaningSystem {
  def name: String
  def clean(spark: SparkSession, ds: BenchDataset): DataFrame
}

/** Driver-side snapshot of a benchmark table, for the baseline systems.
  *
  * HoloClean/Raha/Baran/RetClean/CleanAgent are row-at-a-time ML/rule systems
  * in their original implementations; reimplementing their mechanisms over a
  * collected snapshot (≤7.4k rows here) is faithful and keeps the Spark job
  * count for the 25 (system × dataset) runs manageable. Cocoon — the system
  * under study — runs fully through Spark SQL.
  */
final class LocalTable(val columns: Seq[String], val rowIds: Array[Long], val cells: Array[Array[String]]) {
  val colIdx: Map[String, Int] = columns.zipWithIndex.toMap
  def n: Int = rowIds.length
  def value(r: Int, c: String): String = cells(r)(colIdx(c))
  def set(r: Int, c: String, v: String): Unit = cells(r)(colIdx(c)) = v

  def toDf(spark: SparkSession, keyCol: String): DataFrame = BenchDataset.frame(spark, keyCol, rowIds, columns, cells)
}

object LocalTable {
  def collect(ds: BenchDataset): LocalTable = {
    val cols = ds.dataColumns
    val rows = ds.dirty.select(ds.keyCol, cols: _*).orderBy(ds.keyCol).collect()
    val ids  = rows.map(_.getLong(0))
    val cells = rows.map(r => cols.indices.map(i => r.getString(i + 1)).toArray)
    new LocalTable(cols, ids, cells)
  }

  /** lhsValue → (rhsValue → count), over the first `rows` rows where both
    * are non-null.
    */
  def groupRhs(t: LocalTable, lhs: String, rhs: String, rows: Int): Map[String, Map[String, Int]] = {
    val m = scala.collection.mutable.Map.empty[String, scala.collection.mutable.Map[String, Int]]
    var r = 0
    while (r < rows) {
      val lv = t.value(r, lhs); val rv = t.value(r, rhs)
      if (lv != null && rv != null) {
        val inner = m.getOrElseUpdate(lv, scala.collection.mutable.Map.empty.withDefaultValue(0))
        inner(rv) += 1
      }
      r += 1
    }
    m.view.mapValues(_.toMap).toMap
  }
}
