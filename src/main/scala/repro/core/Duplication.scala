package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.types.{ByteType, DataType, IntegerType, LongType, ShortType, StringType}
import repro.llm.LLMClient
import repro.profile.TableProfile

/** §2.1.7 Duplication.
  *
  * Statistical detection counts fully duplicated rows ([[duplicateRowCount]]:
  * none, with no query, when the profile shows a column whose values are
  * pairwise distinct); the LLM judges whether duplication is semantically
  * acceptable for this table (e.g. coarse-grained logging); if erroneous,
  * cleaning is SELECT DISTINCT.
  */
object Duplication {

  def step(df: DataFrame, profile: TableProfile, llm: LLMClient, tableDesc: String): CleaningStep = {
    val dups = duplicateRowCount(df, profile)
    val rows =
      if (dups == 0 || llm.duplicationAcceptable(tableDesc, dups, profile.rowCount)) KeepAllRows
      else
        DistinctRows(
          s"$dups of ${profile.rowCount} rows are exact copies of another row, which '$tableDesc' should not " +
            "contain; kept one copy of each."
        )
    CleaningStep("duplication", Seq.empty, rows)
  }

  /** Number of fully duplicated rows beyond the first occurrence. It is 0,
    * with no Spark job, when the profile shows a column whose values are
    * pairwise distinct (at most one null); otherwise one `DISTINCT` count
    * over the table coalesced into one partition: one job, no exchange.
    */
  def duplicateRowCount(df: DataFrame, profile: TableProfile): Long = {
    val distinctColumn = df.schema.fields.exists { f =>
      comparesAsText(f.dataType) && profile.columns.get(f.name).exists { p =>
        p.distinctCount + (if (p.nullCount > 0) 1 else 0) == p.rowCount
      }
    }
    if (distinctColumn) 0L else profile.rowCount - df.coalesce(1).distinct().count()
  }

  /** Types whose profiled text is equal exactly when `DISTINCT` finds the
    * values equal. Not floating point (`-0.0` and `0.0` print apart but
    * compare equal), not collated strings, not nested types (their text is
    * ambiguous).
    */
  private def comparesAsText(t: DataType): Boolean =
    t == StringType || Seq(ByteType, ShortType, IntegerType, LongType).contains(t)
}
