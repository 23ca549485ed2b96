package repro.core

import repro.SparkSpec
import repro.llm.SimulatedLLM
import repro.profile.TableProfile

class PatternOutliersSpec extends SparkSpec {
  import spark.implicits._

  private val llm = new SimulatedLLM()

  test("standardises minority duration format to the dominant one") {
    val df = (Seq.fill(45)("100 min") ++ Seq.fill(5)("1 hr 40 min") ++ Seq.fill(30)("90 min")).toDF("duration")
    val out = CleaningStep.apply(spark, df, PatternOutliers.step(df, TableProfile.of(df), llm).get)
    assert(out.filter("duration = '1 hr 40 min'").count() == 0)
    assert(out.filter("duration = '100 min'").count() == 50)
  }

  test("standardises minority date format (the Rayyan case)") {
    val df = (Seq.fill(40)("1/5/2009") ++ Seq.fill(6)("2009-03-02")).toDF("created_at")
    val out = CleaningStep.apply(spark, df, PatternOutliers.step(df, TableProfile.of(df), llm).get)
    assert(out.filter("created_at = '2009-03-02'").count() == 0)
    assert(out.filter("created_at = '3/2/2009'").count() == 6)
  }

  test("standardises ounce words to oz (the Beers case)") {
    val df = (Seq.fill(50)("12.0 oz") ++ Seq.fill(8)("12.0 ounce") ++ Seq.fill(4)("16.0 ounces")).toDF("ounces")
    val out = CleaningStep.apply(spark, df, PatternOutliers.step(df, TableProfile.of(df), llm).get)
    assert(out.filter("ounces LIKE '%ounce%'").count() == 0)
    assert(out.filter("ounces = '16.0 oz'").count() == 4)
  }

  test("a uniform column is untouched") {
    val df = Seq.fill(40)("100 min").toDF("duration")
    assert(PatternOutliers.step(df, TableProfile.of(df), llm).isEmpty)
  }

  test("free-text columns are untouched") {
    val df = Seq("some title", "another title").toDF("title")
    assert(PatternOutliers.step(df, TableProfile.of(df), llm).isEmpty)
  }

  test("formats below the 80% coverage bar are left alone") {
    val df = (Seq.fill(10)("100 min") ++ Seq.fill(10)("2 hr") ++ Seq.fill(30)("not a duration")).toDF("c")
    assert(PatternOutliers.step(df, TableProfile.of(df), llm).isEmpty)
  }

  test("rewrite values survive a round trip through generated SQL") {
    val df = (Seq.fill(20)("1/5/2009") ++ Seq.fill(3)("2009-07-09")).toDF("d")
    val step = PatternOutliers.step(df, TableProfile.of(df), llm).get
    val out = CleaningStep.apply(spark, df, step)
    assert(out.filter("d = '7/9/2009'").count() == 3)
  }
}
