package repro.core

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.llm.SimulatedLLM
import repro.profile.TableProfile

class DmvSpec extends SparkSpec {
  import spark.implicits._

  private val llm = new SimulatedLLM()

  /** The columns the pipeline gives a string stage: every string column. */
  private def strings(df: DataFrame) = CleaningStep.stringColumns(df, Set.empty)

  test("nulls disguised missing values") {
    val df = (Seq.fill(20)("72") ++ Seq("N/A", "null", "-")).toDF("score")
    val out = CleaningStep.apply(df, Dmv.step(strings(df), TableProfile.of(df), llm))
    assert(out.filter("score IS NULL").count() == 3)
    assert(out.filter("score = '72'").count() == 20)
  }

  test("DMV matching is by exact token, not substring") {
    val df = (Seq.fill(5)("nanomaterial") ++ Seq("none")).toDF("c")
    val out = CleaningStep.apply(df, Dmv.step(strings(df), TableProfile.of(df), llm))
    assert(out.filter("c = 'nanomaterial'").count() == 5)
    assert(out.filter("c IS NULL").count() == 1)
  }

  test("clean columns yield no step") {
    val df = Seq("72", "85", "91").toDF("score")
    assert(Dmv.step(strings(df), TableProfile.of(df), llm).isNoop)
  }

  test("multiple columns cleaned in one step") {
    val df = Seq(("N/A", "x"), ("3", "unknown")).toDF("a", "b")
    val step = Dmv.step(strings(df), TableProfile.of(df), llm)
    assert(step.rewrites.map(_.column).toSet == Set("a", "b"))
    val out = CleaningStep.apply(df, step)
    assert(out.filter("a IS NULL").count() == 1 && out.filter("b IS NULL").count() == 1)
  }

  test("excluded key column untouched") {
    // The pipeline leaves the key out of the columns it gives a stage.
    val df = Seq(("N/A", "1")).toDF("v", "row_id")
    val step = Dmv.step(strings(df).filterNot(_ == "row_id"), TableProfile.of(df), llm)
    assert(step.rewrites.map(_.column) == Seq("v"))
  }

  test("case-insensitive DMV recognition") {
    val df = (Seq.fill(3)("ok") ++ Seq("NULL", "Not Available")).toDF("c")
    val out = CleaningStep.apply(df, Dmv.step(strings(df), TableProfile.of(df), llm))
    assert(out.filter("c IS NULL").count() == 2)
  }
}
