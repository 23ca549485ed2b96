package repro.core

import repro.SparkSpec
import repro.llm.SimulatedLLM
import repro.profile.TableProfile

class DmvSpec extends SparkSpec {
  import spark.implicits._

  private val llm = new SimulatedLLM()

  test("nulls disguised missing values") {
    val df = (Seq.fill(20)("72") ++ Seq("N/A", "null", "-")).toDF("score")
    val out = CleaningStep.apply(spark, df, Dmv.step(df, TableProfile.of(df), llm).get)
    assert(out.filter("score IS NULL").count() == 3)
    assert(out.filter("score = '72'").count() == 20)
  }

  test("DMV matching is by exact token, not substring") {
    val df = (Seq.fill(5)("nanomaterial") ++ Seq("none")).toDF("c")
    val out = CleaningStep.apply(spark, df, Dmv.step(df, TableProfile.of(df), llm).get)
    assert(out.filter("c = 'nanomaterial'").count() == 5)
    assert(out.filter("c IS NULL").count() == 1)
  }

  test("clean columns yield no step") {
    val df = Seq("72", "85", "91").toDF("score")
    assert(Dmv.step(df, TableProfile.of(df), llm).isEmpty)
  }

  test("multiple columns cleaned in one step") {
    val df = Seq(("N/A", "x"), ("3", "unknown")).toDF("a", "b")
    val step = Dmv.step(df, TableProfile.of(df), llm).get
    assert(step.rewrites.map(_.column).toSet == Set("a", "b"))
    val out = CleaningStep.apply(spark, df, step)
    assert(out.filter("a IS NULL").count() == 1 && out.filter("b IS NULL").count() == 1)
  }

  test("excluded key column untouched") {
    val df = Seq(("N/A", "1")).toDF("v", "row_id")
    val step = Dmv.step(df, TableProfile.of(df), llm, exclude = Set("row_id")).get
    assert(step.rewrites.map(_.column) == Seq("v"))
  }

  test("case-insensitive DMV recognition") {
    val df = (Seq.fill(3)("ok") ++ Seq("NULL", "Not Available")).toDF("c")
    val out = CleaningStep.apply(spark, df, Dmv.step(df, TableProfile.of(df), llm).get)
    assert(out.filter("c IS NULL").count() == 2)
  }
}
