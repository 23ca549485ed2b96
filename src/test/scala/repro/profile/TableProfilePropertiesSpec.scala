package repro.profile

import org.apache.spark.sql.Row
import org.apache.spark.sql.types.{IntegerType, LongType, StringType, StructField, StructType}
import org.scalacheck.Gen
import repro.{Seeded, SparkSpec}

/** The one-pass [[TableProfile]] and [[Profiler.scoreFds]] agree exactly with
  * the per-column and per-pair queries they replace ([[ReferenceProfiler]]),
  * on small random tables with nulls, numeric and non-numeric strings,
  * quoted values, tied counts, an all-null column, non-string columns and a
  * unique key.
  */
class TableProfilePropertiesSpec extends SparkSpec {

  private val schema = StructType(Seq(
    StructField("row_id", LongType, nullable = false),
    StructField("word", StringType),
    StructField("mixed", StringType),
    StructField("empty", StringType),
    StructField("qty", IntegerType),
  ))

  // Small pools, so counts tie often.
  private val word  = Gen.oneOf[String](null, "a", "b", "it's", "O'Brien", "", "B", "ab")
  private val mixed = Gen.oneOf[String](null, "1", "2.5", "-3", "1e2", "x1", "12 oz", "'7'", "2.5")
  private val int   = Gen.oneOf[Integer](null, 0, 1, 7, -2)

  private val table: Gen[Seq[Row]] = for {
    n    <- Gen.chooseNum(0, 30)
    rows <- Gen.listOfN(n, Gen.zip(word, mixed, int))
  } yield rows.zipWithIndex.map { case ((w, m, i), k) => Row(k.toLong, w, m, null, i) }

  test("TableProfile equals the per-column profile queries") {
    Seeded.forAll(Gen.zip(table, Gen.oneOf(1, 2, 3, 1000)), n = 25) { case (rows, cap) =>
      val df = spark.createDataFrame(spark.sparkContext.parallelize(rows, 2), schema)
      val profile = TableProfile.of(df, cap)
      assert(profile.columns.keySet == schema.fieldNames.toSet)
      assert(profile.rowCount == rows.size)
      for (c <- schema.fieldNames)
        assert(profile(c) == ReferenceProfiler.profileColumn(df, c, cap), s"column $c of $rows")
    }
  }

  test("scoreFds equals the per-pair FD queries") {
    val pairs = Seq("word" -> "mixed", "mixed" -> "word", "word" -> "empty", "qty" -> "word")
    Seeded.forAll(table, n = 15) { rows =>
      val df = spark.createDataFrame(spark.sparkContext.parallelize(rows, 2), schema)
      val fds = Profiler.scoreFds(df, pairs, maxGroups = 1000)
      for (((lhs, rhs), fd) <- pairs.zip(fds)) {
        assert((fd.lhs, fd.rhs) == (lhs, rhs))
        assert((fd.strength, fd.violatingGroups) == ReferenceProfiler.scoreFd(df, lhs, rhs), s"$lhs → $rhs of $rows")
        assert(fd.groups == ReferenceProfiler.fdViolatingGroups(df, lhs, rhs), s"$lhs → $rhs of $rows")
      }
    }
  }
}
