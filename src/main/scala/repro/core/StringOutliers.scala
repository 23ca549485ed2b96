package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.types.StringType
import repro.llm.LLMClient
import repro.profile.TableProfile

/** §2.1.1 String Outliers.
  *
  * Statistical detection samples each string column's frequent values (default
  * 1000); semantic detection asks the LLM (Figure 2 prompt) to review one
  * batch at a time for typos and inconsistent representations; semantic
  * cleaning asks for an erroneous→correct mapping (Figure 3 prompt) and emits
  * a CASE WHEN rewrite.
  */
object StringOutliers {

  /** String-typed columns eligible for cleaning. */
  def stringColumns(df: DataFrame, exclude: Set[String]): Seq[String] =
    df.schema.fields.filter(f => f.dataType == StringType && !exclude(f.name)).map(_.name).toSeq

  def step(
      df: DataFrame,
      profile: TableProfile,
      llm: LLMClient,
      exclude: Set[String] = Set.empty,
      maxValues: Int = 1000,
      batchSize: Int = 1000,
  ): Option[CleaningStep] = {
    val rewrites = stringColumns(df, exclude).flatMap { c =>
      val values = profile.frequentValues(c, maxValues)
      // One LLM call per batch of distinct values, as the paper does to stay
      // inside the context window on wide domains.
      val unusual = values
        .grouped(math.max(1, batchSize))
        .flatMap { batch =>
          val review = llm.reviewStringOutliers(c, batch)
          if (review.unusual) review.unusualValues else Seq.empty
        }
        .toSeq
      if (unusual.isEmpty) None
      else {
        val mapping = llm
          .proposeStringMapping(c, unusual, values)
          .toSeq
          .filter { case (bad, good) => bad != good }
          .sortBy(_._1)
        if (mapping.isEmpty) None
        else
          Some(
            ColumnRewrite(
              c,
              MapValues(mapping),
              s"${mapping.size} values contain typos or redundant representations of more common values; " +
                "mapped to their canonical forms.",
            )
          )
      }
    }
    if (rewrites.isEmpty) None else Some(CleaningStep("string-outliers", rewrites))
  }
}
