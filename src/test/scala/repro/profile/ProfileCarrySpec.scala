package repro.profile

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types.{IntegerType, LongType, StringType, StructField, StructType}
import org.scalacheck.Gen
import repro.{Seeded, SparkSpec}
import repro.JobCounting.{countingExecutions, countingJobs}
import repro.bench.CocoonRuns
import repro.core._
import repro.eval.Harness
import repro.llm.SimulatedLLM

/** The profile [[ProfileCarry]] derives on the driver equals the one
  * [[TableProfile.of]] measures on the rewritten table, wherever the carry is
  * defined, the joint counts of its column pairs included, and deriving it
  * starts no Spark job and no SQL execution.
  *
  * Profiles are compared up to the sign of a zero minimum or maximum: with
  * both "-0" and "0" in a column, Spark's `min` keeps whichever it meets
  * first.
  */
class ProfileCarrySpec extends SparkSpec {

  private val schema = StructType(Seq(
    StructField("row_id", LongType, nullable = false),
    StructField("a", StringType),
    StructField("b", StringType),
    StructField("c", StringType),
    StructField("empty", StringType),
    StructField("qty", IntegerType),
  ))
  private val strings = Seq("a", "b", "c", "empty")

  /** The column pairs whose joint counts the profiles carry: one pair given
    * in the other column order, and one with an all-null side.
    */
  private val pairs = Seq("a" -> "b", "c" -> "b", "a" -> "c", "a" -> "empty")

  // Numbers Spark and Scala parse differently, quotes, and a character
  // outside the Basic Multilingual Plane against U+FFFD, which sort one way
  // in UTF-8 and the other in UTF-16.
  private val pool = Seq[String](
    null, "NaN", "Infinity", "-Infinity", "-0", "0", "1e3", " 12 ", "12", "it's", "O'Brien",
    "😀", "�", "a", "ab", "",
  )
  private val nonNull = Gen.oneOf(pool.filter(_ != null))
  private val bound = Gen.option(Gen.oneOf(-1.0, 0.0, 12.0, 100.0, 1000.0))

  private val table: Gen[Seq[Row]] = for {
    n    <- Gen.chooseNum(0, 30)
    // A few values per column, so counts tie often, and NULL among them in
    // half the columns: `Gen.pick` at this seed never picks the pool's NULL.
    pools <- Gen.listOfN(3, Gen.pick(4, pool.filter(_ != null)).flatMap(p => Gen.oneOf(p, p :+ null)))
    rows <- Gen.listOfN(n, Gen.zip(Gen.oneOf(pools(0)), Gen.oneOf(pools(1)), Gen.oneOf(pools(2)), Gen.oneOf[Integer](null, 0, 7)))
  } yield rows.zipWithIndex.map { case ((a, b, c, q), k) => Row(k.toLong, a, b, c, null, q) }

  /** A single-lhs FD repair of `rhs` over `rows`, its lhs a column whose
    * pair with `rhs` the profiles count, in either order. Its arms are some of
    * the pair's (lhs, rhs) values with neither side NULL; the table's other
    * rows, a side NULL or not, keep their `rhs`.
    */
  private def fdRepair(rows: Seq[Row], rhs: String): Gen[Rewrite] = for {
    lhs     <- Gen.oneOf(pairs.collect { case (l, `rhs`) => l; case (`rhs`, r) => r })
    li = schema.fieldIndex(lhs); ri = schema.fieldIndex(rhs)
    joint = rows.filter(r => !r.isNullAt(li) && !r.isNullAt(ri)).map(r => (r.getString(li), r.getString(ri))).distinct.sorted
    arms    <- Gen.someOf(joint)
    targets <- Gen.listOfN(arms.size, nonNull)
  } yield FdRepair(arms.toSeq.zip(targets).map { case ((l, bad), t) => FdCase(lhs, l, bad, t) })

  private def rewrite(rows: Seq[Row], col: String): Gen[Rewrite] = {
    val clamp = Gen.zip(bound, bound).map { case (lo, hi) => RangeClamp(lo, hi) }
    if (col == "qty") clamp
    else Gen.oneOf(
      // A value map's keys are distinct and it maps to no NULL. Half its
      // targets are one of two values, so that values often merge.
      Gen.listOf(Gen.zip(nonNull, Gen.oneOf(nonNull, Gen.oneOf("a", "12")))).map(m => MapValues(m.distinctBy(_._1))),
      Gen.someOf(pool.filter(_ != null)).map(vs => MapToNull(vs.toSeq)),
      clamp,
      fdRepair(rows, col),
    )
  }

  private def step(rows: Seq[Row]): Gen[CleaningStep] = for {
    strs     <- Gen.atLeastOne(strings)
    cols     <- Gen.frequency(4 -> Gen.const(strs.toSeq), 1 -> Gen.const(strs.toSeq :+ "qty"))
    rewrites <- Gen.sequence[Seq[Rewrite], Rewrite](cols.toSeq.map(rewrite(rows, _)))
  } yield CleaningStep("carry", cols.toSeq.zip(rewrites).map { case (c, rw) => ColumnRewrite(c, rw, "r") })

  private def canon(p: TableProfile) = {
    def bits(d: Option[Double]) = d.map(x => java.lang.Double.doubleToLongBits(x + 0.0)) // -0.0 + 0.0 is 0.0
    (p.rowCount, p.columns.view.mapValues(c =>
      (c.copy(minNumeric = None, maxNumeric = None), bits(c.minNumeric), bits(c.maxNumeric))).toMap, p.pairs)
  }

  /** The carried profile, checked against a fresh one wherever it is
    * defined: its columns, and the joint counts of every pair but those of a
    * column an FD repair rewrote, which it drops.
    */
  private def carryChecked(df: DataFrame, before: TableProfile, step: CleaningStep): Option[TableProfile] = {
    val applied = CleaningStep.apply(df, step)
    val ((carried, jobs), executions) = countingExecutions(countingJobs(ProfileCarry.after(before, step, applied)))
    assert(jobs == 0, s"carrying ${step.issue} started $jobs Spark jobs")
    assert(executions == 0, s"carrying ${step.issue} started $executions SQL executions")
    carried.foreach { c =>
      val repaired = step.rewrites.collect { case ColumnRewrite(col, FdRepair(cases), _) if cases.nonEmpty => col }.toSet
      assert(c.pairs.keySet == before.pairs.keySet.filterNot { case (l, r) => repaired(l) || repaired(r) }, s"pairs after $step")
      val rebuilt = TableProfile.of(applied, c.pairs.keys.toSeq)
      assert(canon(c) == canon(rebuilt), s"carried ≠ rebuilt after $step")
    }
    carried
  }

  test("the carried profile equals a fresh profile after random value maps and FD repairs") {
    val gen = for { rows <- table; s <- step(rows) } yield (rows, s)
    var carried = 0
    // Carried samples where a pair's row lost a side to NULL, and where two
    // of a pair's value combinations merged into one.
    var nulled, merged = 0
    // Carried samples with an FD repair whose pair was counted in the other
    // column order, and with one over a table where a row has a NULL side.
    var reversed, nullSide = 0
    Seeded.forAll(gen, n = 150) { case (rows, s) =>
      val df = spark.createDataFrame(spark.sparkContext.parallelize(rows, 2), schema)
      val before = TableProfile.of(df, pairs)
      val result = carryChecked(df, before, s)
      assert(result.isDefined == s.rewrites.forall(_.column != "qty"), s"carry defined = ${result.isDefined} for $s")
      result.foreach { after =>
        carried += 1
        val repairs = s.rewrites.collect { case ColumnRewrite(rhs, FdRepair(cases), _) if cases.nonEmpty => (cases.head.lhsCol, rhs) }
        if (repairs.exists(p => !pairs.contains(p))) reversed += 1
        if (repairs.exists { case (l, r) => rows.exists(row => row.isNullAt(schema.fieldIndex(l)) || row.isNullAt(schema.fieldIndex(r))) })
          nullSide += 1
        val kept = after.pairs.keys.toSeq
        if (kept.exists(p => after.pairs(p).values.sum < before.pairs(p).values.sum)) nulled += 1
        if (kept.exists(p => after.pairs(p).size < before.pairs(p).size && after.pairs(p).values.sum == before.pairs(p).values.sum))
          merged += 1
      }
    }
    info(s"$carried carried, $nulled nulled, $merged merged, $reversed reversed, $nullSide NULL side")
    assert(carried >= 30, s"only $carried of 150 samples carried")
    assert(nulled >= 5 && merged >= 5, s"only $nulled samples lost pair rows to NULL and $merged merged them")
    assert(reversed >= 5 && nullSide >= 5, s"only $reversed samples repaired from a reversed pair and $nullSide over a NULL side")
  }

  test("pair counts carry through a value map, a DMV null and a boolean cast") {
    import spark.implicits._
    val df = Seq(
      (1L, "Boston", "yes", "MA"), (2L, "Bostn", "yes", "MA"), (3L, "Boston", "Y", "MA"),
      (4L, "N/A", "no", "CA"), (5L, "Reno", "no", null), (6L, "Reno", "n", "NV"),
    ).toDF("row_id", "city", "open", "state")
    val pairs = Seq("city" -> "state", "open" -> "city", "state" -> "open")
    val s = CleaningStep("s", Seq(
      ColumnRewrite("city", MapValues(Seq("Bostn" -> "Boston")), "typo"),
      ColumnRewrite("open", MapValues(Seq("yes" -> "True", "Y" -> "True", "no" -> "False", "n" -> "False")), "bool"),
    ))
    val carried = carryChecked(df, TableProfile.of(df, pairs), s).get
    // Bostn merged into Boston; "yes" and "Y" into "True".
    assert(carried.joint("city", "state") == Map(("Boston", "MA") -> 3L, ("N/A", "CA") -> 1L, ("Reno", "NV") -> 1L))
    assert(carried.joint("open", "city") == Map(("True", "Boston") -> 3L, ("False", "N/A") -> 1L, ("False", "Reno") -> 2L))
    val dmv = CleaningStep("dmv", Seq(ColumnRewrite("city", MapToNull(Seq("N/A")), "dmv")))
    val applied = CleaningStep.apply(df, s)
    val nulled = carryChecked(applied, carried, dmv).get
    // Row 4 loses its city: it leaves every pair with the city.
    assert(nulled.joint("city", "state") == Map(("Boston", "MA") -> 3L, ("Reno", "NV") -> 1L))
    assert(nulled.joint("open", "city") == Map(("True", "Boston") -> 3L, ("False", "Reno") -> 2L))
    assert(nulled.joint("state", "open") == carried.joint("state", "open"))
    // An FD repair drops its column's pairs and keeps the others.
    val fd = CleaningStep("fd", Seq(ColumnRewrite("state", FdRepair(Seq(FdCase("city", "Reno", "NV", "CA"))), "fd")))
    val repaired = carryChecked(CleaningStep.apply(applied, dmv), nulled, fd).get
    assert(repaired.pairs.keySet == Set("open" -> "city"))
  }

  test("the carry is undefined where it cannot be exact") {
    import spark.implicits._
    val df = Seq((1L, "z1", "x1", "Boston"), (2L, "z1", "x1", "Dothan"), (3L, "z2", "x2", "Reno"))
      .toDF("row_id", "zip", "phone", "city")
    val p = TableProfile.of(df, Seq("zip" -> "city"))
    def after(p: TableProfile, s: CleaningStep) = ProfileCarry.after(p, s, CleaningStep.apply(df, s))
    def step(rws: (String, Rewrite)*) = CleaningStep("s", rws.map { case (c, rw) => ColumnRewrite(c, rw, "r") })
    def carry(rws: (String, Rewrite)*) = after(p, step(rws: _*))

    assert(after(p, CleaningStep("dup", Seq.empty, DistinctRows("r"))).isEmpty)
    assert(after(p, CleaningStep("u", Seq.empty, KeepFirstPerKey("zip", "phone", None, "r"))).isEmpty)
    assert(carry("row_id" -> RangeClamp(Some(2.0), None)).isEmpty, "non-string column")
    val reno = step("city" -> MapToNull(Seq("Reno")))
    // A plan that is not the step's Project over the column is never guessed at.
    assert(ProfileCarry.after(p, reno, CleaningStep.apply(df, reno).filter("row_id > 0")).isEmpty, "not a Project")
    assert(ProfileCarry.after(p, reno, df.selectExpr("row_id", "zip", "phone", "upper(zip) AS city")).isEmpty, "not from the column")
    assert(ProfileCarry.after(p, reno, df).isEmpty, "the input's own plan")
    // A repair from two lhs columns, and one from a pair the profile did not count.
    assert(carry("city" -> FdRepair(Seq(FdCase("zip", "z1", "Boston", "Dothan"), FdCase("phone", "x1", "Boston", "Reno")))).isEmpty)
    assert(carry("city" -> FdRepair(Seq(FdCase("phone", "x1", "Boston", "Reno")))).isEmpty, "uncounted pair")
    assert(carry("city" -> FdRepair(Seq(FdCase("zip", "z1", "Boston", "Dothan")))).isDefined)
    assert(carry("city" -> MapValues(Seq("Reno" -> "Dothan"))).isDefined)
  }

  for (name <- Harness.table1.datasets)
    test(s"replaying Cocoon's steps on $name, every carried profile equals a fresh one") {
      val run = CocoonRuns(name)
      import run.{ds, result}
      assert(result.steps.nonEmpty)
      val fdPairs = FunctionalDeps.meaningfulPairs(CleaningStep.stringColumns(ds.dirty, Set(ds.keyCol)), new SimulatedLLM())
      var df = ds.dirty
      val carried = result.steps.map { s =>
        val c = carryChecked(df, TableProfile.of(df, fdPairs), s)
        df = CleaningStep.apply(df, s).localCheckpoint()
        s.issue -> c.isDefined
      }
      if (name == "flights") assert(carried.forall(_._2), s"flights steps not carried: $carried")
    }
}
