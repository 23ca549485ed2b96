package repro.core

import org.apache.spark.sql.DataFrame
import repro.llm.LLMClient
import repro.profile.TableProfile

/** §2.1.3 Disguised Missing Values.
  *
  * The LLM reviews a column's values for strings that are not NULL but
  * semantically mean missing ("N/A", "null", "-"); cleaning is a
  * CASE WHEN ... THEN NULL rewrite.
  */
object Dmv {

  def step(
      df: DataFrame,
      profile: TableProfile,
      llm: LLMClient,
      exclude: Set[String] = Set.empty,
      maxValues: Int = 2000,
  ): Option[CleaningStep] = {
    val rewrites = StringOutliers.stringColumns(df, exclude).flatMap { c =>
      val values = profile.frequentValues(c, maxValues)
      val dmv    = llm.identifyDmv(c, values).distinct.sorted
      if (dmv.isEmpty) None
      else
        Some(
          ColumnRewrite(
            c,
            MapToNull(dmv),
            s"Values ${dmv.map(v => s"'$v'").mkString(", ")} semantically denote a missing value; replaced with NULL.",
          )
        )
    }
    if (rewrites.isEmpty) None else Some(CleaningStep("disguised-missing-values", rewrites))
  }
}
