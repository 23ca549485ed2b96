package repro.core

import repro.SparkSpec
import repro.llm.SimulatedLLM
import repro.profile.TableProfile

class StringOutliersSpec extends SparkSpec {
  import spark.implicits._

  private val llm = new SimulatedLLM()

  test("fixes a frequency-grounded typo via CASE WHEN") {
    val df = (Seq.fill(20)("Birmingham") ++ Seq("Birmxngham")).toDF("city")
    val step = StringOutliers.step(df, TableProfile.of(df), llm).get
    val out = CleaningStep.apply(spark, df, step)
    assert(out.filter("city = 'Birmxngham'").count() == 0)
    assert(out.filter("city = 'Birmingham'").count() == 21)
  }

  test("fixes language representation inconsistency to the dominant form") {
    val df = (Seq.fill(40)("eng") ++ Seq.fill(5)("English") ++ Seq.fill(20)("fre") ++ Seq.fill(3)("French"))
      .toDF("article_language")
    val out = CleaningStep.apply(spark, df, StringOutliers.step(df, TableProfile.of(df), llm).get)
    assert(out.filter("article_language IN ('English','French')").count() == 0)
    assert(out.filter("article_language = 'eng'").count() == 45)
  }

  test("no step on clean data") {
    val df = (Seq.fill(10)("Boston") ++ Seq.fill(12)("Denver")).toDF("city")
    assert(StringOutliers.step(df, TableProfile.of(df), llm).isEmpty)
  }

  test("excluded columns are never rewritten") {
    val df = (Seq.fill(20)("Birmingham") ++ Seq("Birmxngham")).toDF("city")
      .withColumnRenamed("city", "row_id")
    assert(StringOutliers.step(df, TableProfile.of(df), llm, exclude = Set("row_id")).isEmpty)
  }

  test("dictionary typos in unique text values are fixed") {
    val titles = Seq("Effects of tretment on stroke", "Risk factors for diabetes")
    val df = titles.toDF("title")
    val out = CleaningStep.apply(spark, df, StringOutliers.step(df, TableProfile.of(df), llm).get)
    assert(out.filter("title = 'Effects of treatment on stroke'").count() == 1)
  }

  test("batching still covers all distinct values") {
    // 1000 distinct values, the most one column sends: the typo ranks last.
    val fillers = (1 to 998).flatMap(i => Seq.fill(2)(s"value_number_$i"))
    val df = (fillers ++ Seq.fill(20)("Birmingham") ++ Seq("Birmxngham")).toDF("c")
    assert(TableProfile.of(df)("c").frequentValues.indexWhere(_.value == "Birmxngham") == 999)
    val step = StringOutliers.step(df, TableProfile.of(df), llm).get
    val out = CleaningStep.apply(spark, df, step)
    assert(out.filter("c = 'Birmxngham'").count() == 0)
  }

  test("non-string columns are ignored") {
    val df = Seq(1, 2, 3).toDF("n")
    assert(StringOutliers.step(df, TableProfile.of(df), llm).isEmpty)
  }

  test("state codes are never treated as typos of each other") {
    val df = (Seq.fill(100)("AL") ++ Seq.fill(5)("AK")).toDF("state")
    assert(StringOutliers.step(df, TableProfile.of(df), llm).isEmpty)
  }
}
