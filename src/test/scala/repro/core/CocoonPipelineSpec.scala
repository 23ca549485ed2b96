package repro.core

import repro.SparkSpec
import repro.llm.SimulatedLLM

class CocoonPipelineSpec extends SparkSpec {
  import spark.implicits._

  private val llm = new SimulatedLLM()

  /** A small table exercising the §2.1 ordering argument: typos must be
    * fixed before patterns, patterns before casts.
    */
  private lazy val datesDf = {
    val rows =
      Seq.fill(30)((1L, "100 min")) ++ Seq.fill(5)((2L, "1 hr 40 min")) ++ Seq((3L, "90 min"))
    rows.zipWithIndex.map { case ((_, d), i) => (i.toLong, d) }.toDF("row_id", "duration")
  }

  test("pipeline composes stages in the paper's order") {
    val res = CocoonPipeline.run(spark, datesDf, llm)
    val issues = res.steps.map(_.issue)
    assert(issues == issues.sortBy(Seq(
      "string-outliers", "pattern-outliers", "disguised-missing-values", "column-type",
      "numeric-outliers", "functional-dependencies", "duplication").indexOf))
  }

  test("duration column flows pattern standardisation → minutes cast") {
    val res = CocoonPipeline.run(spark, datesDf, llm)
    assert(res.cleaned.filter("duration = '100.0'").count() == 35)
    assert(res.cleaned.filter("duration = '90.0'").count() == 1)
  }

  test("key column is never rewritten") {
    val res = CocoonPipeline.run(spark, datesDf, llm)
    assert(res.cleaned.select("row_id").as[Long].collect().sorted.toSeq == (0L until 36L))
  }

  test("emitted script is a commented WITH-chain over the executed stages") {
    val res = CocoonPipeline.run(spark, datesDf, llm)
    assert(res.script.startsWith("WITH "))
    assert(res.script.contains("pattern_outliers") && res.script.contains("column_type"))
    assert(res.script.contains("--")) // NL reasoning comments, Figure 5 style
  }

  test("clean input produces no steps and an identity script") {
    val df = Seq((1L, "Boston"), (2L, "Denver")).toDF("row_id", "city")
    val res = CocoonPipeline.run(spark, df, llm)
    assert(res.steps.isEmpty && res.script.contains("no data quality issues"))
    assert(res.cleaned.collect().toSet == df.collect().toSet)
  }

  test("typo fix unlocks FD grouping (order matters end to end)") {
    // provider 10001 has a typo'd id row and a corrupted city; a second
    // provider keeps the FD lhs non-constant. Only after the typo fix does
    // the 10001 group absorb its row and repair the city.
    val rows = (0 until 19).map(i => (i.toLong, "10001", if (i == 0) "WrongCity" else "Dothan")) ++
      Seq((19L, "1000x", "Dothan")) ++
      (20 until 30).map(i => (i.toLong, "20007", "Boston")) // ≥2 edits from "1000x": typo target stays unique
    val df = rows.toDF("row_id", "provider_id", "city")
    val res = CocoonPipeline.run(spark, df, llm)
    assert(res.cleaned.filter("provider_id = '10001'").count() == 20)
    assert(res.cleaned.filter("city = 'WrongCity'").count() == 0)
  }

  test("DMV cleaned before numeric outlier profiling") {
    val rows = (0 until 30).map(i => (i.toLong, if (i < 3) "N/A" else "45")) :+ ((30L, "999"))
    val df = rows.toDF("row_id", "age")
    val res = CocoonPipeline.run(spark, df, llm)
    // N/A → NULL (dmv stage), then 999 clamps under the age range.
    assert(res.cleaned.filter("age IS NULL").count() == 4)
  }

  test("pipeline output schema equals input schema") {
    val res = CocoonPipeline.run(spark, datesDf, llm)
    assert(res.cleaned.columns.toSeq == datesDf.columns.toSeq)
  }

  test("duplication stage drops exact duplicates in keyless tables") {
    val df = (Seq.fill(3)(("a", "1")) ++ Seq(("b", "2"))).toDF("x", "y")
    val res = CocoonPipeline.run(spark, df, llm, CocoonConfig(keyCol = "none", tableDesc = "customers"))
    assert(res.cleaned.count() == 2)
    assert(res.steps.exists(_.issue == "duplication"))
  }

  test("no cocoon_ temp view remains after a run") {
    // Runs that apply column rewrites and a uniqueness dedupe.
    val rows = (0 until 19).map(i => (i.toLong, s"k$i", s"2020-01-${10 + i}")) :+
      ((19L, "k0", "2021-06-01"))
    val keyed = rows.toDF("row_id", "customer_id", "updated_at")
    assert(CocoonPipeline.run(spark, keyed, llm).script.contains("uniqueness"))
    assert(CocoonPipeline.run(spark, datesDf, llm).steps.nonEmpty)
    val views = spark.catalog.listTables().collect().filter(_.isTemporary).map(_.name)
    assert(!views.exists(_.startsWith("cocoon_")), views.mkString(", "))
  }

  test("a cached input stays cached after a run that rewrites it") {
    val df = datesDf.cache()
    try {
      assert(CocoonPipeline.run(spark, df, llm).steps.nonEmpty)
      assert(df.storageLevel.useMemory)
    } finally df.unpersist()
  }

  test("uniqueness stage dedupes a near-unique key table") {
    // 19 distinct keys over 20 rows (ratio 0.95): key-like and nearly unique.
    val rows = (0 until 19).map(i => (i.toLong, s"k$i", s"2020-01-${10 + i}")) :+
      ((19L, "k0", "2021-06-01"))
    val df = rows.toDF("row_id", "customer_id", "updated_at")
    val res = CocoonPipeline.run(spark, df, llm, CocoonConfig(keyCol = "row_id", tableDesc = "customers"))
    assert(res.cleaned.count() == 19)
    assert(res.cleaned.filter("customer_id = 'k0'").select("updated_at").collect().head.getString(0) == "2021-06-01")
  }
}
