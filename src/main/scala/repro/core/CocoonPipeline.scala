package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.llm.LLMClient
import repro.profile.TableProfile
import repro.util.SqlGen.Dialect

/** One pipeline run's inputs besides the table. `keyCol` is the row
  * identifier and is never rewritten; `tableDesc` feeds the duplication
  * judgement.
  */
final case class CocoonConfig(keyCol: String = "row_id", tableDesc: String = "table")

/** The result of a Cocoon run: the cleaned DataFrame and the per-issue
  * steps that fired. `script` is the full commented SQL script (Figure 5
  * analogue), a CTE chain rendered from the same steps that `cleaned` was
  * built from; [[CleaningStep.renderScript]] renders them in another
  * dialect. Wherever a test runs Cocoon, it checks that the script gives the
  * rows of `cleaned` on Spark and on DuckDB.
  *
  * `cleaned` is a lazy plan, each step's plan over the one before with
  * literal maps as constants, and a run persists nothing: every read of it
  * runs the whole chain again, so cache it to read it twice.
  */
final case class CocoonResult(cleaned: DataFrame, steps: Seq[CleaningStep]) {

  /** The input's columns: no step adds, drops or reorders one. */
  def columns: Seq[String] = cleaned.columns.toSeq

  lazy val script: String = CleaningStep.renderScript(steps, columns, Dialect.Spark)
}

/** The paper's core contribution: decompose cleaning per issue type, each
  * issue into statistical detection → semantic detection → semantic cleaning,
  * applied in the dependency order §2.1 mandates (typos must be fixed before
  * patterns can be standardised, patterns before casts, casts before numeric
  * profiling; FDs and row-level issues last).
  *
  * Each stage's detection runs against the *output* of the previous stage, so
  * e.g. FD grouping sees typo-fixed values — the reason the order matters.
  * The eight stages are one list, in paper order, and each sees the table
  * and one [[TableProfile]] of its state, covering every column, the key too
  * (a key that is still distinct proves the table has no duplicate rows).
  * The FD gate reads only column names, so a run asks it first, and every
  * profile also counts, for each FD target of the pairs it accepts, the
  * table of its lhs columns' and its own values, from which the FD stage
  * scores with no query. A run profiles its input once; each stage then
  * decides, applies its step and carries the profile, tables included, on
  * the driver through the plan the step was applied as, with no query
  * ([[ProfileCarry]]). The table is profiled again only where the carry
  * cannot be exact (after a row action, or a rewrite of a non-string column)
  * and a later stage reads the profile. The applied steps are chained as one
  * plan over the input, as the script chains its CTEs; only the profile
  * builds and the duplicate-row count start Spark jobs, and no SQL text is
  * parsed. `spark` is not read: the plan is built on `input`'s session.
  */
object CocoonPipeline {

  def run(
      spark: SparkSession,
      input: DataFrame,
      llm: LLMClient,
      cfg: CocoonConfig = CocoonConfig(),
  ): CocoonResult = {
    // No rewrite changes a column's type, so these hold for every stage.
    val columns = input.columns.toSeq
    val data    = columns.filterNot(_ == cfg.keyCol)
    val strings = CleaningStep.stringColumns(input, Set(cfg.keyCol))
    // The FD gate reads only column names: asked once, before any profile.
    val fdPairs = FunctionalDeps.meaningfulPairs(strings, llm)
    val stages: Seq[(DataFrame, TableProfile) => CleaningStep] = Seq(
      (_, p) => StringOutliers.step(strings, p, llm),
      (_, p) => PatternOutliers.step(strings, p, llm),
      (_, p) => Dmv.step(strings, p, llm),
      (_, p) => ColumnType.step(strings, p, llm),
      (_, p) => NumericOutliers.step(data, p, llm),
      (_, p) => FunctionalDeps.step(fdPairs, p, llm),
      Duplication.step(_, _, llm, cfg.tableDesc),
      (_, p) => Uniqueness.step(columns, p, llm, Some(cfg.keyCol).filter(columns.contains)),
    )

    var df      = input
    var profile = Option.empty[TableProfile] // None: not yet built for this table state
    var steps   = Vector.empty[CleaningStep]
    for (stage <- stages) {
      val p = profile.getOrElse(TableProfile.of(df, fdPairs))
      profile = Some(p)
      val step = stage(df, p)
      if (!step.isNoop) {
        df = CleaningStep.apply(df, step)
        profile = ProfileCarry.after(p, step, df)
        steps :+= step
      }
    }
    CocoonResult(df, steps)
  }
}
