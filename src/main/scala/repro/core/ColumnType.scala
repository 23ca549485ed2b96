package repro.core

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

  /** Most frequent values the LLM reviews per column. */
  private val MaxValues = 3000

  def step(columns: Seq[String], profile: TableProfile, llm: LLMClient): CleaningStep =
    CleaningStep("column-type", columns.flatMap { c =>
      val values = profile.frequentValues(c, MaxValues)
      llm.suggestType(c, "string", values).flatMap { sug =>
        // How each value is rewritten, and what the reasoning adds.
        val conversion: Option[(String => Option[String], String)] = sug.rewriteKind match {
          case "boolean"          => Some((Knowledge.booleanConcept, ""))
          case "duration-minutes" => Some((Knowledge.Duration.parseMinutes(_).map(_.toDouble.toString), " (total minutes)"))
          case "rating-number"    => Some((Knowledge.Rating.render(_, "plain"), ""))
          case _                  => None // numeric-cast: representation-preserving, nothing to emit
        }
        conversion.flatMap { case (convert, suffix) =>
          val mapping = values.flatMap(v => convert(v.value).filter(_ != v.value).map(v.value -> _)).sortBy(_._1)
          Option.when(mapping.nonEmpty)(
            ColumnRewrite(c, MapValues(mapping), s"${sug.reasoning} Cast to ${sug.targetType}$suffix.")
          )
        }
      }
    })
}
