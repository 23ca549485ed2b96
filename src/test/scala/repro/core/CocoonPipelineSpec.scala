package repro.core

import java.sql.Date

import repro.{ScriptCheck, Sha256, SparkSpec}
import repro.JobCounting.countingJobs
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
      "string-outliers", "pattern-outliers", "dmv", "column-type",
      "numeric-outliers", "functional-deps", "duplication", "uniqueness").indexOf))
  }

  test("duration column flows pattern standardisation → minutes cast") {
    val res = CocoonPipeline.run(spark, datesDf, llm)
    assert(res.cleaned.filter("duration = '100.0'").count() == 35)
    assert(res.cleaned.filter("duration = '90.0'").count() == 1)
  }

  test("key column is never rewritten") {
    val res = CocoonPipeline.run(spark, datesDf, llm)
    assert(res.cleaned.select("row_id").as[Long].collect().sorted.toSeq == (0L until 36L))

    // A string key holding a disguised missing value and a near-typo of a
    // frequent key: the same values in a data column are rewritten.
    val keys = Seq.fill(20)("Birmingham") ++ Seq("Birmxngham", "N/A")
    val stringKeyed = keys.zipWithIndex.map { case (k, i) => (k, k, i.toLong) }.toDF("row_id", "city", "seq")
    val cleaned = CocoonPipeline.run(spark, stringKeyed, llm).cleaned
    assert(cleaned.select("row_id").as[String].collect().sorted.toSeq == keys.sorted)
    assert(cleaned.filter("city = 'Birmxngham' OR city = 'N/A'").isEmpty)
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

  /** Provider 10001 has a typo'd id row and a corrupted city; a second
    * provider keeps the FD lhs non-constant.
    */
  private lazy val providersDf = {
    val rows = (0 until 19).map(i => (i.toLong, "10001", if (i == 0) "WrongCity" else "Dothan")) ++
      Seq((19L, "1000x", "Dothan")) ++
      (20 until 30).map(i => (i.toLong, "20007", "Boston")) // ≥2 edits from "1000x": typo target stays unique
    rows.toDF("row_id", "provider_id", "city")
  }

  test("typo fix unlocks FD grouping (order matters end to end)") {
    // Only after the typo fix does the 10001 group absorb its row and
    // repair the city. The FD stage scores from the carried profile: the
    // run's one job is the input's profile.
    val (res, jobs) = countingJobs(CocoonPipeline.run(spark, providersDf, llm))
    assert(jobs == 1, s"$jobs Spark jobs")
    assert(res.cleaned.filter("provider_id = '10001'").count() == 20)
    assert(res.cleaned.filter("city = 'WrongCity'").count() == 0)
  }

  test("a run persists nothing") {
    val before = spark.sparkContext.getPersistentRDDs.keySet
    val (res, jobs) = countingJobs(CocoonPipeline.run(spark, providersDf, llm))
    assert(res.steps.map(_.issue) == Seq("string-outliers", "functional-deps"))
    assert(jobs == 1, s"$jobs Spark jobs")
    assert(spark.sparkContext.getPersistentRDDs.keySet == before)
    assert(res.cleaned.count() == 30)
  }

  test("DMV cleaned before numeric outlier profiling") {
    val rows = (0 until 30).map(i => (i.toLong, if (i < 3) "N/A" else "45")) :+ ((30L, "999"))
    val df = rows.toDF("row_id", "age")
    val res = CocoonPipeline.run(spark, df, llm)
    // N/A → NULL (dmv stage), then 999 clamps under the age range.
    assert(res.cleaned.filter("age IS NULL").count() == 4)
    assert(res.steps.map(_.issue).contains("numeric-outliers"))
    assert(Sha256(res.script) == "72e3dc30c8dbaf48bee8eb4aef15db220c2eecbe8b16679c5230824fecaecf10", res.script)
  }

  test("a NaN hides no out-of-range number from the numeric-outlier stage") {
    // Spark orders NaN above every number, in the profile's max and in the
    // clamp's `>`, so the clamp nulls both 999 and the NaN.
    val ages  = (0 until 40).map(i => (18 + i).toString) ++ Seq("999", "NaN")
    val text  = ages.zipWithIndex.map { case (a, i) => (i.toLong, a) }.toDF("row_id", "age")
    val typed = text.selectExpr("row_id", "CAST(age AS DOUBLE) AS age")
    for ((df, clue) <- Seq(text -> "text ages", typed -> "DOUBLE ages")) {
      val res = CocoonPipeline.run(spark, df, llm)
      assert(res.steps.map(_.issue) == Seq("numeric-outliers"), clue)
      val cleaned = res.cleaned.cache()
      try {
        assert(cleaned.filter("age IS NULL").select("row_id").as[Long].collect().sorted.toSeq == Seq(40L, 41L), clue)
        ScriptCheck.onSpark(res, df, cleaned, clue)
        ScriptCheck.onDuckDb(res, df, cleaned)
      } finally cleaned.unpersist()
    }
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
    assert(Sha256(res.script) == "2195da5a205282f1120123e554438c6de0fd80c8731a066bc3b80c676ac40bd9", res.script)
  }

  test("a run leaves the session's temp views as it found them") {
    // A view of the caller's, which a run must neither replace nor drop.
    val mine = Seq((1L, "mine")).toDF("row_id", "v")
    mine.createOrReplaceTempView("cocoon_stage_1")
    def views = spark.catalog.listTables().collect().filter(_.isTemporary).map(_.name).toSeq.sorted
    try {
      val before = views
      // Runs that rewrite values, drop duplicate rows and keep the first row per key.
      val keyed = ((0 until 19).map(i => (i.toLong, s"k$i", s"2020-01-${10 + i}")) :+ ((19L, "k0", "2021-06-01")))
        .toDF("row_id", "customer_id", "updated_at")
      val copies = (Seq.fill(3)(("a", "1")) ++ Seq(("b", "2"))).toDF("x", "y")
      assert(CocoonPipeline.run(spark, datesDf, llm).steps.nonEmpty)
      assert(CocoonPipeline.run(spark, copies, llm, CocoonConfig(keyCol = "none")).steps.exists(_.issue == "duplication"))
      assert(CocoonPipeline.run(spark, keyed, llm).steps.exists(_.issue == "uniqueness"))
      assert(views == before)
      assert(spark.table("cocoon_stage_1").collect().toSeq == mine.collect().toSeq)
    } finally spark.catalog.dropTempView("cocoon_stage_1")
  }

  test("a cached input stays cached after a run that rewrites it") {
    val df = datesDf.cache()
    try {
      assert(CocoonPipeline.run(spark, df, llm).steps.nonEmpty)
      assert(df.storageLevel.useMemory)
    } finally df.unpersist()
  }

  test("uniqueness stage dedupes a keyless table") {
    // The configured key is not a column, so no row key breaks ties.
    val rows = (0 until 19).map(i => (s"k$i", s"2020-01-${10 + i}")) :+ (("k0", "2021-06-01"))
    val df = rows.toDF("customer_id", "updated_at")
    val res = CocoonPipeline.run(spark, df, llm, CocoonConfig(keyCol = "none", tableDesc = "customers"))
    assert(res.steps.last.issue == "uniqueness")
    assert(res.cleaned.count() == 19)
    assert(res.cleaned.filter("customer_id = 'k0'").select("updated_at").collect().head.getString(0) == "2021-06-01")
  }

  test("uniqueness stage dedupes a near-unique key table") {
    // 19 distinct keys over 20 rows (ratio 0.95): key-like and nearly unique.
    val rows = (0 until 19).map(i => (i.toLong, s"k$i", s"2020-01-${10 + i}")) :+
      ((19L, "k0", "2021-06-01"))
    val df = rows.toDF("row_id", "customer_id", "updated_at")
    val (res, runJobs)   = countingJobs(CocoonPipeline.run(spark, df, llm, CocoonConfig(keyCol = "row_id", tableDesc = "customers")))
    val (kept, readJobs) = countingJobs(res.cleaned.count())
    assert(kept == 19)
    assert(res.cleaned.filter("customer_id = 'k0'").select("updated_at").collect().head.getString(0) == "2021-06-01")
    assert(res.steps.last.issue == "uniqueness")
    val cte = res.script.linesIterator.dropWhile(!_.contains("_uniqueness AS (")).toSeq
    assert(cte.lift(1).exists(_.startsWith("-- ")), res.script)
    assert(Sha256(res.script) == "c071c60ec60f6ec11308c5272b1066a72ef72ea772ac946ee574f9b368a4e5ed", res.script)
    // The run profiles its input in 1 job: the distinct key rules out
    // duplicate rows, and no profile is built after the last stage. The
    // dedupe runs in the first read, with the window's shuffle, the count's
    // shuffle and its result: 3 jobs.
    assert(runJobs <= 1 && runJobs + readJobs <= 4, s"$runJobs + $readJobs Spark jobs")
  }

  test("uniqueness treats no two NULL ids as duplicates") {
    // 97 distinct ids and 3 NULLs over 100 rows: no id repeats, so the
    // stage does not fire and every row stays.
    val rows = (0 until 100).map(i => (i.toLong, if (i % 33 == 32) null else f"c$i%04d", s"2020-01-${10 + i % 19}"))
    val df  = rows.toDF("row_id", "customer_id", "updated_at")
    val res = CocoonPipeline.run(spark, df, llm, CocoonConfig(keyCol = "row_id", tableDesc = "customers"))
    assert(!res.steps.exists(_.issue == "uniqueness"), res.script)
    assert(res.cleaned.count() == 100)
    ScriptCheck.onSpark(res, df, res.cleaned, "NULL ids")
    ScriptCheck.onDuckDb(res, df, res.cleaned)
  }

  test("uniqueness keeps one row per repeated id and every row whose id is NULL") {
    // Row 57 repeats row 0's id with a later date; rows 58 and 59 have no id.
    val rows = (0 until 60).map { i =>
      val id = i match {
        case 57      => "c0000"
        case 58 | 59 => null
        case _       => f"c$i%04d"
      }
      (i.toLong, id, if (i == 57) "2021-06-01" else s"2020-01-${10 + i % 19}")
    }
    val df  = rows.toDF("row_id", "customer_id", "updated_at")
    val res = CocoonPipeline.run(spark, df, llm, CocoonConfig(keyCol = "row_id", tableDesc = "customers"))
    assert(res.steps.map(_.issue) == Seq("uniqueness"), res.script)
    val cleaned = res.cleaned.cache()
    try {
      assert(cleaned.select("row_id").as[Long].collect().sorted.toSeq == (1L to 59L))
      ScriptCheck.onSpark(res, df, cleaned, "a repeated id and NULL ids")
      ScriptCheck.onDuckDb(res, df, cleaned)
    } finally cleaned.unpersist()
  }

  test("a run over a table with a DATE column leaves that column unchanged") {
    // The typo'd city gives the run a step to apply; a DATE value has no
    // numeric view.
    val rows = (0 until 20).map(i => (i.toLong, if (i == 0) "Birmxngham" else "Birmingham", Date.valueOf(s"2020-01-${10 + i}")))
    val df = rows.toDF("row_id", "city", "day")
    val res = CocoonPipeline.run(spark, df, llm)
    assert(res.cleaned.filter("city = 'Birmxngham'").isEmpty)
    val (out, in) = (res.cleaned.select("row_id", "day"), df.select("row_id", "day"))
    assert(out.exceptAll(in).isEmpty && in.exceptAll(out).isEmpty)
  }
}
