package repro.core

import repro.llm.LLMClient
import repro.profile.TableProfile

/** §2.1.8 Column Uniqueness.
  *
  * Statistical detection computes each column's unique ratio, its distinct
  * values over its non-NULL rows; the LLM decides whether the column should
  * be unique semantically (primary-key-like names); cleaning keeps one row
  * per key via a window function, prioritised by a column the LLM picks as
  * carrying recency (e.g. the latest time), falling back to the first column
  * for determinism. As in SQL `UNIQUE`, NULL keys are never duplicates: a
  * row whose key is NULL always stays ([[KeepFirstPerKey]]).
  */
object Uniqueness {

  /** Columns an LLM would pick to prioritise records by, in preference order. */
  def pickOrderColumn(columns: Seq[String], keyCol: String): String = {
    val others = columns.filterNot(_ == keyCol)
    others
      .find(c => Seq("updated", "modified", "time", "date", "created").exists(c.toLowerCase.contains))
      .getOrElse(others.headOption.getOrElse(keyCol))
  }

  /** `columns` are all the table's columns. `rowKey`, the table's row
    * identifier and one of `columns`, is never a candidate and breaks ties in
    * the order column.
    */
  def step(columns: Seq[String], profile: TableProfile, llm: LLMClient, rowKey: Option[String] = None): CleaningStep = {
    val rows = columns
      .filterNot(rowKey.contains)
      .map(c => (c, profile(c).uniqueRatio))
      .find { case (c, ratio) => ratio < 1.0 && llm.shouldBeUnique(c, ratio) }
      .map { case (key, ratio) =>
        val ord = pickOrderColumn(columns, key)
        val why = s"'$key' identifies a record, but only ${math.round(ratio * 100)}% of its values are unique; " +
          s"kept one row per '$key', the latest by '$ord'."
        KeepFirstPerKey(key, ord, rowKey, why)
      }
    CleaningStep("uniqueness", Seq.empty, rows.getOrElse(KeepAllRows))
  }
}
