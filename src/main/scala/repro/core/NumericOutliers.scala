package repro.core

import repro.llm.LLMClient
import repro.profile.TableProfile

/** §2.1.5 Numeric Outliers.
  *
  * Statistical detection captures the column min/max; the LLM reviews the
  * semantically acceptable range for the column (by its meaning — an age
  * cannot be 999); cleaning thresholds via CASE WHEN, nulling values outside
  * the range. The observed min and max are compared as Spark's `<` and `>`
  * compare doubles, which the clamp emits: NaN above every number, so a
  * NaN is out of every range and hides no other value above it.
  */
object NumericOutliers {

  def step(columns: Seq[String], profile: TableProfile, llm: LLMClient): CleaningStep =
    CleaningStep("numeric-outliers", columns.flatMap { c =>
      val prof = profile(c)
      if (prof.numericParseRate < 0.99 || prof.minNumeric.isEmpty) None
      else
        llm.reviewNumericRange(c, prof.minNumeric.get, prof.maxNumeric.get).map { case (lo, hi) =>
          val clampLo = Option.when(prof.minNumeric.get < lo)(lo)
          val clampHi = Option.when(prof.maxNumeric.get > hi || prof.maxNumeric.get.isNaN)(hi)
          ColumnRewrite(
            c,
            RangeClamp(clampLo, clampHi),
            s"Observed range [${prof.minNumeric.get}, ${prof.maxNumeric.get}] exceeds the semantically " +
              s"acceptable [$lo, $hi] for '$c'; out-of-range values nulled.",
          )
        }
    })
}
