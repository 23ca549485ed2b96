package repro.eval

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{LongType, StringType, StructField, StructType}
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

  /** Frequency map of a column's non-null values. */
  def freq(c: String): Map[String, Int] = {
    val i = colIdx(c)
    val m = scala.collection.mutable.Map.empty[String, Int].withDefaultValue(0)
    var r = 0
    while (r < n) { val v = cells(r)(i); if (v != null) m(v) += 1; r += 1 }
    m.toMap
  }

  def copy(): LocalTable = new LocalTable(columns, rowIds, cells.map(_.clone))

  def toDf(spark: SparkSession, keyCol: String): DataFrame = {
    val schema = StructType(
      StructField(keyCol, LongType, nullable = false) +: columns.map(StructField(_, StringType, nullable = true))
    )
    val rows = rowIds.indices.map(r => Row.fromSeq(rowIds(r) +: cells(r).toSeq))
    spark.createDataFrame(spark.sparkContext.parallelize(rows, 4), schema)
  }
}

object LocalTable {
  def collect(ds: BenchDataset): LocalTable = {
    val cols = ds.dataColumns
    val rows = ds.dirty.select(ds.keyCol, cols: _*).orderBy(ds.keyCol).collect()
    val ids  = rows.map(_.getLong(0))
    val cells = rows.map(r => cols.indices.map(i => r.getString(i + 1)).toArray)
    new LocalTable(cols, ids, cells)
  }

  /** Statistical single-attribute FD discovery on the snapshot: returns
    * (lhs, rhs, strength) for non-key lhs columns, mirroring
    * [[repro.profile.Profiler.scoreFds]] semantics.
    */
  def fdCandidates(t: LocalTable, minStrength: Double): Seq[(String, String, Double)] = {
    val distincts = t.columns.map(c => c -> t.freq(c).size).toMap
    for {
      lhs <- t.columns
      rhs <- t.columns
      if lhs != rhs
      if distincts(lhs) > 1 && distincts(lhs) < t.n * 0.9
      s = fdStrength(t, lhs, rhs)
      if s >= minStrength && s < 1.0
    } yield (lhs, rhs, s)
  }

  /** Plurality-agreement strength, matching [[repro.profile.FdScore]]:
    * share of rows whose rhs equals their group's most frequent rhs.
    */
  def fdStrength(t: LocalTable, lhs: String, rhs: String): Double = {
    val groups = groupRhs(t, lhs, rhs)
    var total = 0L; var agree = 0L
    groups.values.foreach { m =>
      total += m.values.sum
      agree += m.values.max
    }
    if (total == 0) 0.0 else agree.toDouble / total
  }

  /** lhsValue → (rhsValue → count), over rows where both are non-null. */
  def groupRhs(t: LocalTable, lhs: String, rhs: String): Map[String, Map[String, Int]] = {
    val m = scala.collection.mutable.Map.empty[String, scala.collection.mutable.Map[String, Int]]
    var r = 0
    while (r < t.n) {
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
