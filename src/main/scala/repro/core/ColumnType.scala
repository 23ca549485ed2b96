package repro.core

import org.apache.spark.sql.DataFrame
import repro.llm.{Knowledge, LLMClient}
import repro.profile.TableProfile

/** §2.1.4 Column Type.
  *
  * The LLM inspects the catalog type and the value profile and suggests the
  * semantically suitable type; cleaning is a CAST. Three suggestions change
  * value representations (and so are applied as rewrites): boolean-looking
  * text → canonical "True"/"False" (the paper casts "yes"/"no" to bool),
  * uniform duration text → total minutes as DOUBLE, and "7.5/10" ratings →
  * plain numbers. A pure numeric cast ("123" → 123) changes no surface value,
  * so it emits nothing: neither a rewrite nor a `CAST` in the script, which
  * keeps every column a string and the output schema equal to the input's.
  */
object ColumnType {

  def step(
      df: DataFrame,
      profile: TableProfile,
      llm: LLMClient,
      exclude: Set[String] = Set.empty,
      maxValues: Int = 3000,
  ): Option[CleaningStep] = {
    val rewrites = StringOutliers.stringColumns(df, exclude).flatMap { c =>
      val values = profile.frequentValues(c, maxValues)
      llm.suggestType(c, "string", values).flatMap { sug =>
        sug.rewriteKind match {
          case "boolean" =>
            val mapping = values
              .flatMap(v => Knowledge.booleanConcept(v.value).filter(_ != v.value).map(v.value -> _))
              .sortBy(_._1)
            Option.when(mapping.nonEmpty)(
              ColumnRewrite(c, MapValues(mapping), s"${sug.reasoning} Cast to ${sug.targetType}.")
            )
          case "duration-minutes" =>
            val mapping = values
              .flatMap { v =>
                Knowledge.Duration.parseMinutes(v.value).map(m => v.value -> m.toDouble.toString)
              }
              .filter { case (bad, good) => bad != good }
              .sortBy(_._1)
            Option.when(mapping.nonEmpty)(
              ColumnRewrite(c, MapValues(mapping), s"${sug.reasoning} Cast to ${sug.targetType} (total minutes).")
            )
          case "rating-number" =>
            val mapping = values
              .flatMap(v => Knowledge.Rating.render(v.value, "plain").filter(_ != v.value).map(v.value -> _))
              .sortBy(_._1)
            Option.when(mapping.nonEmpty)(
              ColumnRewrite(c, MapValues(mapping), s"${sug.reasoning} Cast to ${sug.targetType}.")
            )
          case _ => None // numeric-cast: representation-preserving, nothing to emit
        }
      }
    }
    if (rewrites.isEmpty) None else Some(CleaningStep("column-type", rewrites))
  }
}
