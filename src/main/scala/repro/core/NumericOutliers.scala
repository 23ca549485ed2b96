package repro.core

import org.apache.spark.sql.DataFrame
import repro.llm.LLMClient
import repro.profile.TableProfile

/** §2.1.5 Numeric Outliers.
  *
  * Statistical detection captures the column min/max; the LLM reviews the
  * semantically acceptable range for the column (by its meaning — an age
  * cannot be 999); cleaning thresholds via CASE WHEN, nulling values outside
  * the range.
  */
object NumericOutliers {

  def step(
      df: DataFrame,
      profile: TableProfile,
      llm: LLMClient,
      exclude: Set[String] = Set.empty,
  ): Option[CleaningStep] = {
    val cols = df.columns.toSeq.filterNot(exclude)
    val rewrites = cols.flatMap { c =>
      val prof = profile(c)
      if (prof.numericParseRate < 0.99 || prof.minNumeric.isEmpty) None
      else
        llm.reviewNumericRange(c, prof.minNumeric.get, prof.maxNumeric.get).map { case (lo, hi) =>
          val clampLo = Option.when(prof.minNumeric.get < lo)(lo)
          val clampHi = Option.when(prof.maxNumeric.get > hi)(hi)
          ColumnRewrite(
            c,
            RangeClamp(clampLo, clampHi),
            s"Observed range [${prof.minNumeric.get}, ${prof.maxNumeric.get}] exceeds the semantically " +
              s"acceptable [$lo, $hi] for '$c'; out-of-range values nulled.",
          )
        }
    }
    if (rewrites.isEmpty) None else Some(CleaningStep("numeric-outliers", rewrites))
  }
}
