package repro.profile

import java.sql.{Date, Timestamp}
import java.time.Instant

import org.apache.spark.sql.Row
import org.apache.spark.sql.types.{
  BooleanType, DateType, DecimalType, DoubleType, FloatType, IntegerType, LongType, StringType, StructField, StructType,
  TimestampType,
}
import org.scalacheck.Gen
import repro.{Seeded, SparkSpec}
import repro.core.FunctionalDeps

/** The one-pass [[TableProfile]], and [[FunctionalDeps.scoreFds]] over the
  * pairs it counted, agree exactly with the per-column and per-pair queries they
  * replace ([[ReferenceProfiler]]), each column's ranked values against
  * Spark's `ORDER BY n DESC, v ASC` included, on small random tables with
  * nulls, numeric and non-numeric strings, quoted values, values whose
  * UTF-8 and UTF-16 orders differ, tied counts
  * with group caps that fall inside a tie, an all-null column, a
  * unique key and typed columns: integer, double (NaN, both zeros, both
  * infinities), float, boolean, decimal, date and timestamp, and a
  * timestamp whose two instants print as the same New York time. The
  * profile casts a string column once per distinct value and the reference
  * once per cell. Each table is split into 1–4 partitions, so the driver's
  * merge of the partitions' counts is checked too: counts summed, each
  * typed column's numbers combined, NULLs and pair values split across
  * partitions.
  */
class TableProfilePropertiesSpec extends SparkSpec {

  private val schema = StructType(Seq(
    StructField("row_id", LongType, nullable = false),
    StructField("word", StringType),
    StructField("mixed", StringType),
    StructField("empty", StringType),
    StructField("qty", IntegerType),
    StructField("dbl", DoubleType),
    StructField("flt", FloatType),
    StructField("flag", BooleanType),
    StructField("dec", DecimalType(10, 2)),
    StructField("day", DateType),
    StructField("ts", TimestampType),
    StructField("dst", TimestampType),
  ))

  // Small pools, so counts tie often. U+FFFD and U+1F600 sort one way in
  // Spark's UTF-8 byte order and the other in UTF-16 code units.
  private val word  = Gen.oneOf[String](null, "a", "b", "it's", "O'Brien", "", "B", "ab", "\uFFFD", "\uD83D\uDE00")
  private val mixed = Gen.oneOf[String](null, "1", "2.5", "-3", "1e2", "x1", "12 oz", "'7'", "2.5", "\uFFFD", "\uD83D\uDE00")
  private val int   = Gen.oneOf[Integer](null, 0, 1, 7, -2)
  private val dbl = Gen.oneOf[java.lang.Double](
    null, Double.NaN, -0.0, 0.0, Double.PositiveInfinity, Double.NegativeInfinity, 2.5, -1e300)
  private val flt  = Gen.oneOf[java.lang.Float](null, 0.1f, -0.0f, 3.0f, Float.NaN)
  private val flag = Gen.oneOf[java.lang.Boolean](null, true, false)
  private val dec  = Gen.oneOf[java.math.BigDecimal](null, new java.math.BigDecimal("1.50"), new java.math.BigDecimal("-0.25"),
    new java.math.BigDecimal("12345678.99"))
  private val day = Gen.oneOf[Date](null, Date.valueOf("2020-01-02"), Date.valueOf("1969-12-31"))
  private val ts  = Gen.oneOf[Timestamp](null, Timestamp.valueOf("2020-01-02 03:04:05.123"), Timestamp.valueOf("1970-01-01 00:00:00"))
  // 01:30 EDT and 01:30 EST in New York's fall-back hour: one text, two
  // numbers. Alone in their column, so either can be its min.
  private val dst = Gen.oneOf[Timestamp](null, Timestamp.from(Instant.parse("2021-11-07T05:30:00Z")),
    Timestamp.from(Instant.parse("2021-11-07T06:30:00Z")))

  private val row: Gen[Long => Row] = for {
    w <- word; m <- mixed; i <- int; d <- dbl; f <- flt; b <- flag; c <- dec; dy <- day; t <- ts; ds <- dst
  } yield (k: Long) => Row(k, w, m, null, i, d, f, b, c, dy, t, ds)

  private val table: Gen[Seq[Row]] = for {
    n    <- Gen.chooseNum(0, 30)
    rows <- Gen.listOfN(n, row)
  } yield rows.zipWithIndex.map { case (r, k) => r(k.toLong) }

  /** The number of partitions to split a table into, drawn after the rest of
    * a sample so that it leaves the rows and caps drawn before it as they are.
    */
  private val partitions = Gen.chooseNum(1, 4)

  /** Caps that fall inside a tie of `counts`: each keeps the first of two
    * equal counts, ranked most frequent first, and drops the second.
    */
  private def tieCaps(counts: Iterable[Long]): Seq[Int] = {
    val ranked = counts.toSeq.sorted(Ordering[Long].reverse)
    (1 until ranked.size).filter(k => ranked(k - 1) == ranked(k))
  }

  /** A cap inside a tie of `counts` when there is one, else one of `others`. */
  private def capIn(counts: Iterable[Long], others: Int*): Gen[Int] = tieCaps(counts) match {
    case Seq() => Gen.oneOf(others)
    case ties  => Gen.frequency(3 -> Gen.oneOf(ties), 1 -> Gen.oneOf(others))
  }

  /** The sizes of the violating groups of `lhs` → `rhs`. */
  private def violatingSizes(rows: Seq[Row], lhs: String, rhs: String): Iterable[Long] = {
    val (l, r) = (schema.fieldIndex(lhs), schema.fieldIndex(rhs))
    rows.filter(x => !x.isNullAt(l) && !x.isNullAt(r)).groupBy(_.get(l)).values
      .collect { case g if g.map(_.get(r)).distinct.size > 1 => g.size.toLong }
  }

  /** `p` with its numeric min and max as text, so that NaN equals NaN; -0.0
    * reads as 0.0, since Spark's `min` and `max` may return either zero.
    */
  private def comparable(p: ColumnProfile) =
    (p.copy(minNumeric = None, maxNumeric = None), Seq(p.minNumeric, p.maxNumeric).map(_.map(d => if (d == 0.0) "0.0" else d.toString)))

  /** FD pairs: a pair in both directions, an all-null rhs and a typed lhs. */
  private val pairs = Seq("word" -> "mixed", "mixed" -> "word", "word" -> "empty", "qty" -> "word")

  test("TableProfile equals the per-column profile queries") {
    // In New York `dst`'s two instants print alike.
    val zone = spark.conf.get("spark.sql.session.timeZone")
    spark.conf.set("spark.sql.session.timeZone", "America/New_York")
    try Seeded.forAll(Gen.zip(table, partitions), n = 25) { case (rows, parts) =>
      val df = spark.createDataFrame(spark.sparkContext.parallelize(rows, parts), schema)
      // Counting the pairs leaves every column's profile as it is.
      val profile = TableProfile.of(df, pairs)
      assert(profile.columns.keySet == schema.fieldNames.toSet)
      assert(profile.rowCount == rows.size)
      for (c <- schema.fieldNames) {
        val (p, ref) = (profile(c), ReferenceProfiler.profileColumn(df, c))
        assert(comparable(p) == comparable(ref.profile), s"column $c of $rows")
        // The profile ranks its values as Spark orders them, ties included.
        assert(p.frequentValues == ref.ranked, s"column $c of $rows")
        assert((p.rowCount, p.distinctCount) == (ref.rows, ref.distinct), s"column $c of $rows")
      }
    }
    finally spark.conf.set("spark.sql.session.timeZone", zone)
  }

  test("scoreFds equals the per-pair FD queries") {
    val gen = for {
      rows  <- table
      cap   <- capIn(violatingSizes(rows, "word", "mixed"), 1000)
      parts <- partitions
    } yield (rows, parts, cap)
    var straddled = 0
    Seeded.forAll(gen, n = 15) { case (rows, parts, cap) =>
      if (tieCaps(violatingSizes(rows, "word", "mixed")).contains(cap)) straddled += 1
      val df = spark.createDataFrame(spark.sparkContext.parallelize(rows, parts), schema)
      val fds = FunctionalDeps.scoreFds(TableProfile.of(df, pairs), pairs, maxGroups = cap)
      for (((lhs, rhs), fd) <- pairs.zip(fds)) {
        assert((fd.lhs, fd.rhs) == (lhs, rhs))
        assert((fd.strength, fd.violatingGroups) == ReferenceProfiler.scoreFd(df, lhs, rhs), s"$lhs → $rhs of $rows")
        assert(fd.groups == ReferenceProfiler.fdViolatingGroups(df, lhs, rhs, cap), s"$lhs → $rhs of $rows at cap $cap")
      }
    }
    assert(straddled >= 5, s"only $straddled of 15 group caps fell inside a size tie")
  }
}
