package repro.core

import repro.llm.LLMClient
import repro.profile.TableProfile

/** §2.1.3 Disguised Missing Values.
  *
  * The LLM reviews a column's values for strings that are not NULL but
  * semantically mean missing ("N/A", "null", "-"); cleaning is a
  * CASE WHEN ... THEN NULL rewrite.
  */
object Dmv {

  /** Most frequent values the LLM reviews per column. */
  private val MaxValues = 2000

  def step(columns: Seq[String], profile: TableProfile, llm: LLMClient): CleaningStep =
    CleaningStep("dmv", columns.flatMap { c =>
      val values = profile.frequentValues(c, MaxValues)
      val dmv    = llm.identifyDmv(c, values).distinct.sorted
      Option.when(dmv.nonEmpty)(
        ColumnRewrite(
          c,
          MapToNull(dmv),
          s"Values ${dmv.map(v => s"'$v'").mkString(", ")} semantically denote a missing value; replaced with NULL.",
        )
      )
    })
}
