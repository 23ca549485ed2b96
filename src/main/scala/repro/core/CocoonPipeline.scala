package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.llm.LLMClient
import repro.profile.TableProfile
import repro.util.SqlGen

/** Configuration knobs for one pipeline run. `keyCol` is the row identifier
  * and is never rewritten; `tableDesc` feeds the duplication judgement.
  */
final case class CocoonConfig(
    keyCol: String = "row_id",
    tableDesc: String = "table",
    valueBatchSize: Int = 1000,
    maxFrequentValues: Int = 1000,
    minFdStrength: Double = 0.3,
)

/** The result of a Cocoon run: the cleaned DataFrame, the per-issue steps
  * that fired, and the full commented SQL script (Figure 5 analogue) — a CTE
  * chain equivalent to what was executed.
  */
final case class CocoonResult(cleaned: DataFrame, steps: Seq[CleaningStep], script: String)

/** The paper's core contribution: decompose cleaning per issue type, each
  * issue into statistical detection → semantic detection → semantic cleaning,
  * applied in the dependency order §2.1 mandates (typos must be fixed before
  * patterns can be standardised, patterns before casts, casts before numeric
  * profiling; FDs and row-level issues last).
  *
  * Each stage's detection runs against the *output* of the previous stage, so
  * e.g. FD grouping sees typo-fixed values — the reason the order matters.
  * Stages share one [[TableProfile]] per table state, so a run profiles the
  * table once plus once after each step that rewrites it.
  */
object CocoonPipeline {

  def run(
      spark: SparkSession,
      input: DataFrame,
      llm: LLMClient,
      cfg: CocoonConfig = CocoonConfig(),
  ): CocoonResult = {
    val exclude = Set(cfg.keyCol)
    var df      = input
    var steps   = Vector.empty[CleaningStep]
    var ctes    = Vector.empty[(String, String)] // (cteName, selectSql)
    var rel     = "input"

    // One profile per table state: built on first use, dropped when a step
    // rewrites the table.
    var profile = Option.empty[TableProfile]
    def profiled: TableProfile = profile.getOrElse {
      val p = TableProfile.of(df, exclude, math.max(cfg.maxFrequentValues, TableProfile.MaxValues))
      profile = Some(p)
      p
    }

    def runStage(name: String, mk: (DataFrame, TableProfile) => Option[CleaningStep]): Unit =
      mk(df, profiled).filterNot(_.isNoop).foreach { step =>
        val sql = CleaningStep.renderSelect(step, df.columns.toSeq, rel, SqlGen.ident)
        df = CleaningStep.apply(spark, df, step)
        df = df.localCheckpoint(eager = true) // keep lineage flat across 8 stages
        profile = None
        val cte = s"cleaned_${steps.size + 1}_${name.replace('-', '_')}"
        ctes :+= (cte, sql)
        rel = cte
        steps :+= step
      }

    runStage("string-outliers", (d, p) => StringOutliers.step(d, p, llm, exclude, cfg.maxFrequentValues, cfg.valueBatchSize))
    runStage("pattern-outliers", (d, p) => PatternOutliers.step(d, p, llm, exclude))
    runStage("dmv", (d, p) => Dmv.step(d, p, llm, exclude))
    runStage("column-type", (d, p) => ColumnType.step(d, p, llm, exclude))
    runStage("numeric-outliers", (d, p) => NumericOutliers.step(d, p, llm, exclude))
    runStage("functional-deps", (d, p) => FunctionalDeps.step(d, p, llm, exclude, cfg.minFdStrength))
    runStage("duplication", (d, p) => Duplication.step(d, p, llm, cfg.tableDesc))

    // §2.1.8 uniqueness dedupes rows via a window function, outside the
    // column-rewrite model.
    Uniqueness.plan(df, profiled, llm, exclude).foreach { p =>
      df = Uniqueness.apply(spark, df, p)
      ctes :+= (s"cleaned_${ctes.size + 1}_uniqueness", p.sql.replace("__input__", rel))
      rel = ctes.last._1
    }

    val script =
      if (ctes.isEmpty) "-- no data quality issues detected\nSELECT * FROM input"
      else {
        val body = ctes.map { case (n, s) => s"$n AS (\n$s\n)" }.mkString("WITH ", ",\n", "")
        s"$body\nSELECT * FROM $rel"
      }
    CocoonResult(df, steps, script)
  }
}
