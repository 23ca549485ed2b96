package repro.core

import org.apache.spark.sql.DataFrame
import repro.llm.LLMClient
import repro.profile.{Profiler, TableProfile}

/** §2.1.7 Duplication.
  *
  * Statistical detection counts fully duplicated rows; the LLM judges whether
  * duplication is semantically acceptable for this table (e.g. coarse-grained
  * logging); if erroneous, cleaning is SELECT DISTINCT.
  */
object Duplication {

  def step(df: DataFrame, profile: TableProfile, llm: LLMClient, tableDesc: String): CleaningStep = {
    val dups = Profiler.duplicateRowCount(df, profile)
    val rows =
      if (dups == 0 || llm.duplicationAcceptable(tableDesc, dups, profile.rowCount)) KeepAllRows
      else
        DistinctRows(
          s"$dups of ${profile.rowCount} rows are exact copies of another row, which '$tableDesc' should not " +
            "contain; kept one copy of each."
        )
    CleaningStep("duplication", Seq.empty, rows)
  }
}
