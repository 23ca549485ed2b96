package repro.core

import repro.llm.LLMClient
import repro.profile.TableProfile

/** §2.1.1 String Outliers.
  *
  * Statistical detection samples each string column's 1000 most frequent
  * values; semantic detection asks the LLM (Figure 2 prompt) to review them,
  * in one call, for typos and inconsistent representations; semantic
  * cleaning asks for an erroneous→correct mapping (Figure 3 prompt) and emits
  * a CASE WHEN rewrite.
  */
object StringOutliers {

  /** Most frequent values the LLM reviews per column, in one call: §2.1.1's batch. */
  private val MaxValues = 1000

  def step(columns: Seq[String], profile: TableProfile, llm: LLMClient): CleaningStep =
    CleaningStep("string-outliers", columns.flatMap { c =>
      val values = profile.frequentValues(c, MaxValues)
      // A column with no non-null value makes no call.
      val unusual = Option.when(values.nonEmpty)(llm.reviewStringOutliers(c, values)).filter(_.unusual).toSeq.flatMap(_.unusualValues)
      if (unusual.isEmpty) None
      else {
        val mapping = llm
          .proposeStringMapping(c, unusual, values)
          .toSeq
          .filter { case (bad, good) => bad != good }
          .sortBy(_._1)
        Option.when(mapping.nonEmpty)(
          ColumnRewrite(
            c,
            MapValues(mapping),
            s"${mapping.size} values contain typos or redundant representations of more common values; " +
              "mapped to their canonical forms.",
          )
        )
      }
    })
}
