package repro

import org.apache.spark.sql.DataFrame
import org.scalatest.Assertions._
import repro.core.{CleaningStep, CocoonResult}
import repro.util.SqlGen.Dialect

/** The checks of a run's emitted SQL script (§2.2): the script over the
  * input gives the rows of the run's cleaned table, on Spark and on the
  * DuckDB oracle.
  */
object ScriptCheck {

  /** Spark runs `result.script` over `input`, registered as the view `input`
    * for the call, under whole-stage codegen: it must give `cleaned`'s rows,
    * each way, with no fallback to interpreted execution.
    */
  def onSpark(result: CocoonResult, input: DataFrame, cleaned: DataFrame, clue: String): Unit = {
    input.createOrReplaceTempView("input")
    val (_, fallbacks) = try CodegenFallbacks.counting {
      val scripted = input.sparkSession.sql(result.script).cache()
      try {
        assert(cleaned.exceptAll(scripted).isEmpty, s"$clue: rows of cleaned missing from the script's output")
        assert(scripted.exceptAll(cleaned).isEmpty, s"$clue: rows of the script's output missing from cleaned")
      } finally scripted.unpersist()
    } finally input.sparkSession.catalog.dropTempView("input")
    assert(fallbacks == 0, s"$clue: whole-stage codegen fell back $fallbacks times in the script")
  }

  /** DuckDB runs the same steps, rendered in its dialect, over `input`: it
    * must give `cleaned`'s rows.
    */
  def onDuckDb(result: CocoonResult, input: DataFrame, cleaned: DataFrame): Unit =
    Oracle.assertEquivalent(cleaned, CleaningStep.renderScript(result.steps, result.columns, Dialect.DuckDb), "input" -> input)
}
