package repro.core

import org.apache.spark.sql.DataFrame
import repro.llm.{Knowledge, LLMClient}
import repro.profile.TableProfile

/** §2.1.2 Pattern Outliers.
  *
  * The LLM reviews a column's distinct values for semantically meaningful
  * patterns (dates, durations, ratings, unit-tagged quantities); when one
  * concept appears in ≥2 surface formats, the minority formats are rewritten
  * to the dominant one. The paper verifies proposed regexes with SQL; here
  * the match rates come from the same frequency profile and the rewrite is a
  * per-value CASE WHEN (regex-equivalent and portable to the oracle).
  */
object PatternOutliers {

  def step(
      df: DataFrame,
      profile: TableProfile,
      llm: LLMClient,
      exclude: Set[String] = Set.empty,
      maxValues: Int = 3000,
  ): Option[CleaningStep] = {
    val rewrites = StringOutliers.stringColumns(df, exclude).flatMap { c =>
      val values = profile.frequentValues(c, maxValues)
      llm.reviewPatterns(c, values).flatMap { review =>
        val family = Knowledge.formatFamilies.find(_.name == review.familyName).get
        val dominant = review.formatShares.toSeq.sortBy { case (f, n) => (-n, f) }.head._1
        val mapping = values
          .flatMap { v =>
            family.formatOf(v.value) match {
              case Some(f) if f != dominant =>
                family.render(v.value, dominant).filter(_ != v.value).map(v.value -> _)
              case _ => None
            }
          }
          .sortBy(_._1)
        if (mapping.isEmpty) None
        else
          Some(
            ColumnRewrite(
              c,
              MapValues(mapping),
              s"${review.reasoning} Standardised ${mapping.size} values to the '$dominant' format.",
            )
          )
      }
    }
    if (rewrites.isEmpty) None else Some(CleaningStep("pattern-outliers", rewrites))
  }
}
