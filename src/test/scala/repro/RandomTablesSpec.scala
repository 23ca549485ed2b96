package repro

import org.apache.spark.sql.Row
import org.apache.spark.sql.types.{IntegerType, LongType, StringType, StructField, StructType}
import org.scalacheck.Gen
import repro.core.{CocoonConfig, CocoonPipeline}
import repro.llm.SimulatedLLM

/** On small random tables, a Cocoon run's script gives the rows of its
  * cleaned table on Spark and on DuckDB (§2.2).
  *
  * A table is empty, holds only its key, or has the key, a `zip` → `city`
  * FD, an INT `age`, an all-NULL `notes` and a `visited` date. A few rows
  * get another zip's city (the FD stage repairs them), a rare typo of their
  * city (string outliers map it to the frequent value), a NULL zip or city,
  * or an age out of range; a few are exact copies of others, the key
  * included. Dates are mostly ISO and sometimes m/d/yyyy, so pattern
  * outliers rewrite the minority format to the dominant one.
  */
class RandomTablesSpec extends SparkSpec {

  private val full = StructType(Seq(
    StructField("row_id", LongType, nullable = false),
    StructField("zip", StringType),
    StructField("city", StringType),
    StructField("age", IntegerType),
    StructField("notes", StringType),
    StructField("visited", StringType),
  ))
  private val keyOnly = StructType(full.take(1))

  private val homes = Seq("35203" -> "Birmingham", "36301" -> "Dothan", "89501" -> "Reno")
  private val typo  = Map("Birmingham" -> "Birmxngham", "Dothan" -> "Dothen", "Reno" -> "Renno")

  /** A row's zip and city: mostly a home, sometimes corrupted. */
  private val place: Gen[(String, String)] = Gen.oneOf(homes).flatMap { case (zip, city) =>
    Gen.frequency(
      30 -> Gen.const((zip, city)),
      2  -> Gen.oneOf(homes.map(_._2).filter(_ != city)).map(zip -> _),
      1  -> Gen.const((zip, typo(city))),
      1  -> Gen.const((null, city)),
      1  -> Gen.const((zip, null)),
    )
  }
  private val age: Gen[Integer] = Gen.frequency(12 -> Gen.chooseNum(18, 80).map(Integer.valueOf), 1 -> Gen.const(null), 1 -> Gen.const(999))

  private val visited: Gen[String] = for {
    m   <- Gen.chooseNum(1, 12)
    d   <- Gen.chooseNum(1, 28)
    iso <- Gen.frequency(6 -> true, 1 -> false)
  } yield if (iso) f"2020-$m%02d-$d%02d" else s"$m/$d/2020"

  private val table: Gen[(StructType, Seq[Row])] = for {
    n      <- Gen.frequency(1 -> Gen.const(0), 6 -> Gen.chooseNum(8, 40))
    schema <- Gen.frequency(1 -> Gen.const(keyOnly), 5 -> Gen.const(full))
    cells  <- Gen.listOfN(n, Gen.zip(place, age, Gen.frequency(12 -> visited, 1 -> Gen.const(null))))
    copies <- Gen.chooseNum(0, 2)
  } yield {
    val rows = cells.zipWithIndex.map { case (((zip, city), a, day), k) =>
      if (schema == keyOnly) Row(k.toLong) else Row(k.toLong, zip, city, a, null, day)
    }
    (schema, rows ++ rows.take(copies))
  }

  test("on random tables, the script on Spark, the script on DuckDB and cleaned give the same rows") {
    val fired = collection.mutable.Map.empty[String, Int].withDefaultValue(0)
    Seeded.forAll(table, n = 24) { case (schema, rows) =>
      val input = spark.createDataFrame(spark.sparkContext.parallelize(rows, 2), schema)
      val res = CocoonPipeline.run(spark, input, new SimulatedLLM(), CocoonConfig(keyCol = "row_id", tableDesc = "customers"))
      res.steps.foreach(s => fired(s.issue) += 1)
      if (rows.isEmpty) fired("(empty table)") += 1
      if (schema == keyOnly) fired("(key-only table)") += 1
      val cleaned = res.cleaned.cache()
      try {
        ScriptCheck.onSpark(res, input, cleaned, s"${rows.size} rows of ${schema.fieldNames.mkString(", ")}")
        ScriptCheck.onDuckDb(res, input, cleaned)
      } finally cleaned.unpersist()
    }
    info(s"samples of each shape, and that each stage fired in: ${fired.toSeq.sorted.mkString(", ")}")
    for (k <- Seq("(empty table)", "(key-only table)", "string-outliers", "pattern-outliers", "numeric-outliers", "functional-deps", "duplication"))
      assert(fired(k) >= 2, s"only ${fired(k)} samples with $k")
  }
}
