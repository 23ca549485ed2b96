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

  def step(df: DataFrame, profile: TableProfile, llm: LLMClient, tableDesc: String): Option[CleaningStep] = {
    val dups = Profiler.duplicateRowCount(df, profile)
    if (dups == 0) None
    else if (llm.duplicationAcceptable(tableDesc, dups, profile.rowCount)) None
    else Some(CleaningStep("duplication", Seq.empty, dropExactDuplicates = true))
  }
}
