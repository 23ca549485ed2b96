package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.llm.LLMClient
import repro.profile.TableProfile
import repro.util.SqlGen

/** §2.1.8 Column Uniqueness.
  *
  * Statistical detection computes each column's unique ratio; the LLM decides
  * whether the column should be unique semantically (primary-key-like names);
  * cleaning keeps one row per key via a window function, prioritised by a
  * column the LLM picks as carrying recency (e.g. the latest time), falling
  * back to the first column for determinism.
  */
object Uniqueness {

  /** The dedupe plan for one near-unique key column. */
  final case class Plan(keyCol: String, orderCol: String, sql: String)

  /** Columns an LLM would pick to prioritise records by, in preference order. */
  def pickOrderColumn(columns: Seq[String], keyCol: String): String = {
    val others = columns.filterNot(_ == keyCol)
    others
      .find(c => Seq("updated", "modified", "time", "date", "created").exists(c.toLowerCase.contains))
      .getOrElse(others.headOption.getOrElse(keyCol))
  }

  /** `rowKey`, the table's row identifier, is never a candidate and breaks
    * ties in the order column, so the surviving row does not depend on how
    * the input is partitioned.
    */
  def plan(df: DataFrame, profile: TableProfile, llm: LLMClient, rowKey: Option[String] = None): Option[Plan] = {
    val cols = df.columns.toSeq.filterNot(rowKey.contains)
    cols
      .map(c => (c, profile(c).uniqueRatio))
      .find { case (c, ratio) => ratio < 1.0 && llm.shouldBeUnique(c, ratio) }
      .map { case (key, _) =>
        val ord = pickOrderColumn(df.columns.toSeq, key)
        val q   = SqlGen.ident _
        val by  = (s"${q(ord)} DESC" +: rowKey.filterNot(_ == ord).map(q).toSeq).mkString(", ")
        val sql =
          s"""SELECT ${df.columns.map(q).mkString(", ")} FROM (
             |  SELECT *, ROW_NUMBER() OVER (PARTITION BY ${q(key)} ORDER BY $by) AS __rn FROM __input__
             |) WHERE __rn = 1""".stripMargin
        Plan(key, ord, sql)
      }
  }

  /** Apply the dedupe plan by executing its window-function SQL. */
  def apply(spark: SparkSession, df: DataFrame, p: Plan): DataFrame =
    CleaningStep.sqlOver(spark, df)(view => p.sql.replace("__input__", view))
}
