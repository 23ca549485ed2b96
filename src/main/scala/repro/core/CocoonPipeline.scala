package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.llm.LLMClient
import repro.profile.TableProfile
import repro.util.SqlGen

/** One pipeline run's inputs besides the table. `keyCol` is the row
  * identifier and is never rewritten; `tableDesc` feeds the duplication
  * judgement.
  */
final case class CocoonConfig(keyCol: String = "row_id", tableDesc: String = "table")

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
  * Stages share one [[TableProfile]] per table state, covering every column,
  * the key too (a key that is still distinct proves the table has no
  * duplicate rows). A run profiles its input once; after each step the next
  * profile is carried on the driver ([[ProfileCarry]]), and the table is
  * profiled again only where the carry cannot be exact and a later stage
  * reads the profile.
  */
object CocoonPipeline {

  def run(
      spark: SparkSession,
      input: DataFrame,
      llm: LLMClient,
      cfg: CocoonConfig = CocoonConfig(),
  ): CocoonResult = {
    val exclude = Set(cfg.keyCol)
    val stages: Seq[(String, (DataFrame, TableProfile) => Option[CleaningStep])] = Seq(
      ("string_outliers", StringOutliers.step(_, _, llm, exclude)),
      ("pattern_outliers", PatternOutliers.step(_, _, llm, exclude)),
      ("dmv", Dmv.step(_, _, llm, exclude)),
      ("column_type", ColumnType.step(_, _, llm, exclude)),
      ("numeric_outliers", NumericOutliers.step(_, _, llm, exclude)),
      ("functional_deps", FunctionalDeps.step(_, _, llm, exclude)),
      ("duplication", Duplication.step(_, _, llm, cfg.tableDesc)),
      ("uniqueness", Uniqueness.step(_, _, llm, Some(cfg.keyCol))),
    )

    var df      = input
    var profile = Option.empty[TableProfile] // None: not yet built for this table state
    var steps   = Vector.empty[CleaningStep]
    var ctes    = Vector.empty[(String, String)] // (cteName, selectSql)
    var rel     = "input"

    for ((name, stage) <- stages) {
      val p = profile.getOrElse(TableProfile.of(df))
      profile = Some(p)
      stage(df, p).filterNot(_.isNoop).foreach { step =>
        val cte = s"cleaned_${steps.size + 1}_$name"
        ctes :+= (cte, CleaningStep.renderSelect(step, df.columns.toSeq, rel, SqlGen.ident))
        profile = ProfileCarry.after(spark, df, p, step)
        // keep lineage flat across the eight stages
        df = CleaningStep.apply(spark, df, step).localCheckpoint(eager = true)
        rel = cte
        steps :+= step
      }
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
