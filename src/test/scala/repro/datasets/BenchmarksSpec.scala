package repro.datasets

import org.apache.spark.sql.functions._
import repro.SparkSpec

/** Generator invariants: label counts match the paper's error mix, labels
  * cover exactly the cells where dirty and clean differ, and generation is
  * deterministic in the seed.
  */
class BenchmarksSpec extends SparkSpec {

  private lazy val hospital = Hospital.generate(spark)
  private lazy val flights  = Flights.generate(spark)
  private lazy val beers    = Beers.generate(spark)
  private lazy val rayyan   = Rayyan.generate(spark)
  private lazy val movies   = Movies.generate(spark)

  /** Every label points at a cell where dirty ≠ clean, and vice versa. */
  private def assertLabelConsistency(ds: BenchDataset): Unit = {
    val d = repro.eval.Metrics.melt(ds.dirty, ds.keyCol, ds.dataColumns).withColumnRenamed("value", "dv")
    val c = repro.eval.Metrics.melt(ds.clean, ds.keyCol, ds.dataColumns).withColumnRenamed("value", "cv")
    val j = d.join(c, Seq("row_id", "column")).join(ds.labels, Seq("row_id", "column"), "left")
    val mislabeled = j.filter((col("dv") <=> col("cv")) && col("error_type").isNotNull).count()
    val unlabeled  = j.filter(!(col("dv") <=> col("cv")) && col("error_type").isNull).count()
    assert(mislabeled == 0, s"labels on unchanged cells: $mislabeled")
    assert(unlabeled == 0, s"changed cells without labels: $unlabeled")
  }

  /** SHA-256 of a table's rows, each rendered as its values joined by
    * U+0001, sorted and joined by newlines: a byte-level pin that does not
    * depend on partition order.
    */
  private def rowsHash(df: org.apache.spark.sql.DataFrame): String =
    repro.Sha256(df.collect().map(_.toSeq.map(v => String.valueOf(v)).mkString("\u0001")).sorted.mkString("\n"))

  // (dirty, clean, labels) hashes at each generator's default seed.
  private val pinned = Seq(
    "hospital" -> (() => hospital, (
      "cec39ad387a3740c0b117ac40a4f2951c3b41274b3b8431a689f7457eb1eaf41",
      "3581da47a553a97508cd751cbc009c2ea45bdbdfbba64dc8def9a5d9c3a44879",
      "8d97d34531a2d309bde2a21299c12486b054de588080b01a79e01763bab12854")),
    "flights" -> (() => flights, (
      "f5719101daccfc1141eac4521d484706649239b6dee807545735c96d6db0cdf0",
      "d870a5d688237530fee9929111f71d1faf58799f241504ac800e61aae433fe68",
      "a29567bccf4199beeae4be969197e4409b80de667136113f0dcee1662b48696d")),
    "beers" -> (() => beers, (
      "a3021a44e471807590c3714eb3379264f6e0d08e83969ffed4a8d4fc3216814b",
      "d7075da0e7b2f0fcb122c3147c3dfde2222accb3669139bb3d15c10a282a3098",
      "48e1046ac562a8f400c79a8fc793d8571da86a0a75d9fa71c6f0fa42bee42cbd")),
    "rayyan" -> (() => rayyan, (
      "de3045e1eaf51c3737d011c35044eee638900bac085ac8bb71c8b37e22094765",
      "ed95a380da4fb54a91adbc4773c63f04327d86e5dff1f602ad6d9ccdc08642fa",
      "2af7286641a2264b56978d14908fc9dd0724d8c87bf1a3112117bca24a7a3302")),
    "movies" -> (() => movies, (
      "399ab8f839e4b33178e7386036513cbbcdd2e67e2a4bb26222cce35ee38c5883",
      "7878ebe0b0c8c71b54f4488905801dd2dcf1adc2718720d6bda0a3aad1179a00",
      "8dff4bd48034e05b5e8075f60870ebdb5de9588bb2ba2780099b9e554d378833")),
  )
  for ((name, (ds, (dirty, clean, labels))) <- pinned)
    test(s"$name dirty, clean and label rows are pinned at the default seed") {
      assert(rowsHash(ds().dirty) == dirty)
      assert(rowsHash(ds().clean) == clean)
      assert(rowsHash(ds().labels) == labels)
    }

  // ---- Hospital

  test("hospital has 1000 rows and the declared columns") {
    assert(hospital.dirty.count() == 1000)
    assert(hospital.dirty.columns.toSeq == "row_id" +: Hospital.columns)
  }
  test("hospital error mix tracks Table 2 (typo 213, fd 331, coltype 3000, dmv 227)") {
    val c = hospital.errorTypeCounts
    assert(c == Map("typo" -> 213L, "fd" -> 311L, "coltype" -> 3000L, "dmv" -> 227L))
    assert(c("coltype") == 3000)
    assert(c("dmv") == 227)
    assert(math.abs(c("typo") - 213) <= 25, s"typo=${c("typo")}")
    assert(math.abs(c("fd") - 331) <= 35, s"fd=${c("fd")}")
  }
  test("hospital labels are consistent with the dirty/clean diff") {
    assertLabelConsistency(hospital)
  }
  test("hospital is deterministic in the seed") {
    val again = Hospital.generate(spark)
    assert(again.dirty.collect().toSeq == hospital.dirty.collect().toSeq)
  }
  test("hospital boolean ground truth is the cast representation") {
    assert(hospital.clean.filter("emergency_service IN ('True','False')").count() == 1000)
    assert(hospital.dirty.filter("emergency_service IN ('yes','no')").count() == 1000)
  }

  // ---- Flights

  test("flights has 2376 rows, each flight in 4-6 rows") {
    assert(flights.dirty.count() == 2376)
    val sizes = flights.dirty.groupBy("flight").count().select("count").collect().map(_.getLong(0))
    assert(sizes.forall(s => s >= 1 && s <= 6))
  }
  test("flights errors are time FD jitter plus carrier typos") {
    val c = flights.errorTypeCounts
    assert(c("fd") > 500, s"fd=${c("fd")}")
    assert(c.getOrElse("typo", 0L) >= 50)
    // No column-type or DMV cell, so the Table-1 and Table-3 rules count the same cells.
    assert(!c.contains("coltype"))
    assert(!c.contains("dmv"))
  }
  test("flights ambiguity: most violating act-time groups lack a 60% majority") {
    import org.apache.spark.sql.expressions.Window
    val g = flights.dirty.groupBy("flight", "act_arr_time").count()
    val w = Window.partitionBy("flight")
    val shares = g.withColumn("tot", sum("count").over(w))
      .withColumn("nvals", count(lit(1)).over(w))
      .filter(col("nvals") > 1)
      .groupBy("flight").agg((max("count") / first("tot")).as("topShare"))
    val ambiguous = shares.filter(col("topShare") < 0.65).count()
    assert(ambiguous > shares.count() * 0.35, "expected a large share of violating groups to be ambiguous")
  }
  test("flights labels are consistent") { assertLabelConsistency(flights) }

  // ---- Beers

  test("beers has 2410 rows and ounce-word inconsistencies") {
    assert(beers.dirty.count() == 2410)
    val c = beers.errorTypeCounts
    assert(c("inconsistency") == Beers.inconsistencyTarget + Beers.dotVariantTarget)
    assert(c("fd") == Beers.fdTarget)
    assert(c("dmv") == Beers.dmvTarget)
  }
  test("beers inconsistency cells keep the numeric part") {
    val bad = beers.dirty.filter("ounces LIKE '%ounce%'").count()
    assert(bad == Beers.inconsistencyTarget)
  }
  test("beers labels are consistent") { assertLabelConsistency(beers) }

  // ---- Rayyan

  test("rayyan has 1000 rows and the paper's language mix") {
    assert(rayyan.dirty.count() == 1000)
    val eng = rayyan.dirty.filter("article_language = 'eng'").count()
    assert(eng > 350, s"eng=$eng") // dominant code representation
    assert(rayyan.dirty.filter("article_language = 'English'").count() > 50)
  }
  test("rayyan error mix covers typos, language/date inconsistency, fd, dmv, misplacement") {
    val c = rayyan.errorTypeCounts
    assert(c("typo") >= 300)
    assert(c("inconsistency") >= 200) // language + dates
    assert(c("fd") == 150)
    assert(c("dmv") == 100)
    assert(c("misplacement") == 80)
  }
  test("rayyan titles carry distance-2 bait tokens that are not errors") {
    // They exist in dirty and clean alike (never labelled).
    val labels = rayyan.labels.filter("column = 'article_title'").count()
    val c = rayyan.errorTypeCounts
    assert(labels == c("typo"))
  }
  test("rayyan labels are consistent") { assertLabelConsistency(rayyan) }

  // ---- Movies

  test("movies has 7390 rows; coltype spans duration and rating columns") {
    assert(movies.dirty.count() == 7390)
    val c = movies.errorTypeCounts
    assert(c == Map("typo" -> 184L, "coltype" -> 14780L, "dmv" -> 131L, "misplacement" -> 938L))
    assert(c("coltype") == 2 * 7390)
    assert(c("typo") <= Movies.typoTarget && c("typo") >= Movies.typoTarget - 20)
    assert(c("misplacement") == Movies.misplacementTarget)
    assert(c("dmv") == Movies.dmvTarget)
  }
  test("movies misplacements sit beyond the first 1000 rows (sampler blind spot)") {
    val early = movies.labels.filter("error_type = 'misplacement' AND row_id < 1000").count()
    assert(early == 0)
  }
  test("movies duration ground truth is minutes as double text") {
    assert(movies.clean.filter("duration RLIKE '^[0-9]+\\\\.0$'").count() == 7390)
  }
  test("movies labels are consistent") { assertLabelConsistency(movies) }

  test("Hospital and Movies have no error-type overlap anomalies") {
    assert(!hospital.errorTypeCounts.contains("misplacement"))
    assert(!movies.errorTypeCounts.contains("fd"))
  }

  test("title vocabulary is invisible to the dictionary corrector") {
    // No movie title token is within distance 2 of the research dictionary —
    // the paper's RetClean scores 0 outside Rayyan.
    import repro.llm.Knowledge
    val tokens = movies.dirty.select("title").distinct().collect()
      .flatMap(_.getString(0).split(" ")).filter(t => t.length >= 5 && t.forall(_.isLetter)).distinct
    val near = tokens.filter(t => Knowledge.dictCandidates(t.toLowerCase, 2).nonEmpty)
    assert(near.isEmpty, s"tokens near dictionary: ${near.take(5).mkString(",")}")
  }
}
