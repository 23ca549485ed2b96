package repro.core

import repro.SparkSpec
import repro.llm.SimulatedLLM
import repro.profile.TableProfile

class NumericOutliersSpec extends SparkSpec {
  import spark.implicits._

  private val llm = new SimulatedLLM()

  test("clamps semantically impossible values to NULL") {
    val df = (Seq.fill(20)("45") ++ Seq("999", "-3")).toDF("age")
    val out = CleaningStep.apply(spark, df, NumericOutliers.step(df, TableProfile.of(df), llm).get)
    assert(out.filter("age IS NULL").count() == 2)
    assert(out.filter("age = '45'").count() == 20)
  }

  test("no step when the observed range is plausible") {
    val df = Seq("10", "50", "95").toDF("age")
    assert(NumericOutliers.step(df, TableProfile.of(df), llm).isEmpty)
  }

  test("no step for columns without a known semantic range") {
    val df = Seq("1", "999999").toDF("mystery")
    assert(NumericOutliers.step(df, TableProfile.of(df), llm).isEmpty)
  }

  test("non-numeric columns are skipped") {
    val df = Seq("a", "b").toDF("age")
    assert(NumericOutliers.step(df, TableProfile.of(df), llm).isEmpty)
  }

  test("columns with DMV tokens are below the parse-rate bar") {
    // Pipeline ordering: DMV must be cleaned before numeric profiling.
    val df = (Seq.fill(10)("45") ++ Seq.fill(10)("N/A") ++ Seq("999")).toDF("age")
    assert(NumericOutliers.step(df, TableProfile.of(df), llm).isEmpty)
  }

  test("only the violated bound is clamped") {
    val df = (Seq.fill(10)("45") ++ Seq("999")).toDF("age")
    val step = NumericOutliers.step(df, TableProfile.of(df), llm).get
    val rc = step.rewrites.head.rewrite.asInstanceOf[RangeClamp]
    assert(rc.lo.isEmpty && rc.hi.contains(125.0))
  }
}
