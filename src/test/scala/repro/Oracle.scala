package repro

import java.sql.DriverManager
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types.{DataType, DoubleType, IntegerType, LongType}
import repro.util.SqlGen.identAnsi

/** DuckDB correctness oracle.
  *
  * ``assertEquivalent(sparkDf, sql, tables)`` runs ``sql`` on DuckDB
  * (via JDBC, in-process) over ``tables`` and asserts the sorted rows
  * match ``sparkDf``. This catches wrong results from a rewritten plan
  * or a custom operator — "it ran" is not "it is correct".
  *
  * Alias every output column identically on both sides (Spark names
  * ``count(*)`` as ``count(1)``, DuckDB as ``count_star()``). Project
  * to scalar columns — array/map/struct are not comparable here.
  */
object Oracle {

  /** DuckDB's type for a Spark column type; every other type loads as text. */
  private val duckType: Map[DataType, String] = Map(LongType -> "BIGINT", IntegerType -> "INTEGER", DoubleType -> "DOUBLE")

  private def canon(rows: Seq[Row], cols: Seq[String]): Seq[Seq[String]] = {
    val order = cols.sorted
    val idx   = order.map(cols.indexOf)
    rows
      .map(r => idx.map { i =>
        r.get(i) match {
          case null                 => "∅"
          case d: Double            => f"$d%.6f"
          case f: Float             => f"${f.toDouble}%.6f"
          case bd: java.math.BigDecimal => f"${bd.doubleValue}%.6f"
          case x                    => x.toString
        }
      })
      .sortBy(_.mkString(""))
  }

  def assertEquivalent(sparkDf: DataFrame, sql: String, tables: (String, DataFrame)*): Unit = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      for ((name, df) <- tables) {
        val fields = df.schema.fields
        val typed  = fields.map(f => duckType.contains(f.dataType))
        conn.createStatement.execute(
          s"CREATE TABLE ${identAnsi(name)} " +
            fields.map(f => s"${identAnsi(f.name)} ${duckType.getOrElse(f.dataType, "VARCHAR")}").mkString("(", ", ", ")")
        )
        // Collect once; this is an oracle, not a bench — keep tables small.
        val ps = conn.prepareStatement(
          s"INSERT INTO ${identAnsi(name)} VALUES (${fields.map(_ => "?").mkString(",")})"
        )
        df.collect().foreach { r =>
          fields.indices.foreach { i =>
            val v = r.get(i)
            ps.setObject(i + 1, if (v == null || typed(i)) v else v.toString)
          }
          ps.addBatch()
        }
        ps.executeBatch(); ps.close()
      }
      val rs   = conn.createStatement.executeQuery(sql)
      val meta = rs.getMetaData
      val dCols = (1 to meta.getColumnCount).map(meta.getColumnLabel)
      val dRows = Iterator
        .continually(rs)
        .takeWhile(_.next())
        .map(r => Row.fromSeq((1 to dCols.size).map(r.getObject)))
        .toSeq
      val sCols = sparkDf.columns.toSeq
      require(
        dCols.map(_.toLowerCase).toSet == sCols.map(_.toLowerCase).toSet,
        s"column mismatch: spark=${sCols.sorted} duckdb=${dCols.sorted} — alias every output column"
      )
      val got = canon(sparkDf.collect().toSeq, sCols)
      val exp = canon(dRows, dCols)
      require(got == exp,
        s"result mismatch (${got.size} vs ${exp.size} rows):\n" +
        s"  first spark-only: ${got.diff(exp).take(3)}\n" +
        s"  first duck-only:  ${exp.diff(got).take(3)}"
      )
    } finally conn.close()
  }
}
