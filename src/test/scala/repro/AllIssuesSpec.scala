package repro

import java.sql.Date

import scala.util.Random

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{DateType, IntegerType, LongType, StringType, StructField, StructType}
import repro.JobCounting.countingJobs
import repro.core.{CocoonConfig, CocoonPipeline}
import repro.llm.SimulatedLLM

/** A seeded table, not a benchmark, on which one Cocoon run fires DMV,
  * column-type and numeric-outlier steps before an FD repair, then removes
  * exact duplicate rows and keeps one row per near-unique id.
  *
  *   - `rep`name` holds names with `'` and the DMV tokens "N/A" and "unknown";
  *   - `active "flag"` holds "yes"/"no" text, which the column-type stage
  *     casts to "True"/"False";
  *   - `age` is an INT column with out-of-range values: its clamp rewrites a
  *     non-string column, so the profile cannot be carried, and the profile
  *     built before the FD stage counts the FD pairs again;
  *   - `zip code` → `home city` is the FD, with two corrupted cities in one
  *     zip's group and city names with `'`;
  *   - three rows are exact copies of others, the key included;
  *   - `customer_id` repeats four ids, two of them with equal `updated`
  *     dates, a tie the row key breaks;
  *   - `notes` is all NULL and `updated` is a DATE.
  */
object AllIssuesTable {

  val schema: StructType = StructType(Seq(
    StructField("row_id", LongType, nullable = false),
    StructField("customer_id", StringType),
    StructField("zip code", StringType),
    StructField("home city", StringType),
    StructField("rep`name", StringType),
    StructField("active \"flag\"", StringType),
    StructField("age", IntegerType),
    StructField("notes", StringType),
    StructField("updated", DateType),
  ))

  private val zips = Seq("36000" -> "Boston", "36017" -> "Dothan", "83814" -> "Coeur d'Alene", "63366" -> "O'Fallon", "89501" -> "Reno")
  private val reps = Seq("O'Brien", "D'Angelo", "Smith", "Garcia")

  def rows(seed: Long): Seq[Row] = {
    val rnd = new Random(seed)
    val day = (0 until 100).map(_ => Date.valueOf(java.time.LocalDate.of(2024, 1, 1).plusDays(rnd.nextInt(300).toLong)))
    // Rows 96–99 repeat the ids of rows 10, 20, 30 and 40; 96 and 97 also
    // their dates.
    val repeats = Map(96 -> 10, 97 -> 20, 98 -> 30, 99 -> 40)
    val base = (0 until 100).map { i =>
      val (zip, city) = zips(i % zips.size)
      val id = f"c${repeats.getOrElse(i, i)}%04d"
      val updated = if (i == 96 || i == 97) day(repeats(i)) else day(i)
      Row(
        i.toLong,
        id,
        zip,
        if (i == 5 || i == 15) "Dothan" else city,
        if (i % 17 == 3) "N/A" else if (i % 23 == 4) "unknown" else reps(rnd.nextInt(reps.size)),
        if (rnd.nextBoolean()) "yes" else "no",
        Integer.valueOf(if (Set(7, 33, 61)(i)) 999 else if (i == 80) -4 else 18 + rnd.nextInt(60)),
        null,
        updated,
      )
    }
    base ++ Seq(3, 44, 71).map(base)
  }

  def apply(spark: SparkSession, seed: Long = 11L): DataFrame =
    spark.createDataFrame(spark.sparkContext.parallelize(rows(seed), 2), schema)
}

class AllIssuesSpec extends SparkSpec {

  /** `df` with its DATE column as text, as the oracle loads it. */
  private def dateAsText(df: DataFrame): DataFrame = df.withColumn("updated", df("updated").cast("string"))

  private val cfg = CocoonConfig(keyCol = "row_id", tableDesc = "customers")

  test("the all-issues table's run is pinned and its script gives the rows of cleaned on Spark and DuckDB") {
    val input = AllIssuesTable(spark)
    val ((res, jobs), fallbacks) = CodegenFallbacks.counting(countingJobs(CocoonPipeline.run(spark, input, new SimulatedLLM(), cfg)))
    assert(res.steps.map(_.issue) == Seq("dmv", "column-type", "numeric-outliers", "functional-deps", "duplication", "uniqueness"))
    assert(Sha256(res.script) == "0b3d7704c42cf7dfc5b38a880de3ba5d79af47720d60196ed1f6c8f0a29c22c4", res.script)
    // The input's profile, the one before the FD stage (the clamp of `age`
    // is not carried), the DISTINCT count, and the profile after DISTINCT,
    // which runs its shuffle too.
    assert(jobs == 5, s"$jobs Spark jobs")

    val cleaned = res.cleaned.cache()
    try {
      // Cells: the rows kept, and the cells of each column that changed.
      val in  = input.collect().map(r => r.getLong(0) -> r).toMap
      val out = cleaned.collect().toSeq
      val changed = input.columns.indices.map(c => input.columns(c) -> out.count(r => in(r.getLong(0)).get(c) != r.get(c)))
      assert(changed.filter(_._2 > 0).toMap == Map("rep`name" -> 10, "active \"flag\"" -> 96, "age" -> 4, "home city" -> 2))
      val text = out.map(_.toSeq.map(String.valueOf).mkString("\u0001")).sorted.mkString("\n")
      assert(out.size == 96 && Sha256(text) == "c52a1668fc74aa11012e9e1d223cae2dc759ad3543fc303e1e79c60ba66a5a03")
      // The tie on c0010's date goes to the lower row key.
      assert(out.filter(_.getString(1) == "c0010").map(_.getLong(0)) == Seq(10L))

      assert(fallbacks == 0)
      ScriptCheck.onSpark(res, input, cleaned, "all issues")
      ScriptCheck.onDuckDb(res, dateAsText(input), dateAsText(cleaned))
    } finally cleaned.unpersist()
  }

  test("the test JVM collects a DATE value") {
    val days = AllIssuesTable(spark).filter("row_id = 0").select("updated").collect().map(_.getDate(0))
    assert(days.toSeq == Seq(AllIssuesTable.rows(11L).head.getDate(8)))
  }
}
