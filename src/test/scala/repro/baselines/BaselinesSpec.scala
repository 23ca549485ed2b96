package repro.baselines

import repro.SparkSpec
import repro.datasets._
import repro.eval.{Harness, LocalTable, Metrics}

class BaselinesSpec extends SparkSpec {

  private lazy val hospital = Hospital.generate(spark)
  private lazy val beers    = Beers.generate(spark)
  private lazy val movies   = Movies.generate(spark)

  // ---- LocalTable substrate

  test("LocalTable round-trips the dirty table") {
    val t = LocalTable.collect(hospital)
    assert(t.n == 1000 && t.columns == hospital.dataColumns)
    val back = t.toDf(spark, "row_id")
    assert(back.count() == 1000)
    assert(back.columns.toSeq == hospital.dirty.columns.toSeq)
  }

  // ---- HoloClean

  test("HoloClean repairs constraint violations to the group majority") {
    val out = new HoloCleanLite().clean(spark, hospital)
    val s = Metrics.score(hospital, "hc", out, Metrics.table1Excluded)
    assert(s.precision > 0.9, s.row)
    assert(s.recall > 0.4 && s.recall < 0.85, s.row)
  }

  test("HoloClean cannot see unit inconsistencies (Beers, near-zero F1)") {
    val out = new HoloCleanLite().clean(spark, beers)
    val s = Metrics.score(beers, "hc", out, Metrics.table1Excluded)
    assert(s.f1 < 0.2, s.row)
  }

  test("HoloClean samples large datasets and scores ~0 on Movies") {
    val out = new HoloCleanLite().clean(spark, movies)
    val s = Metrics.score(movies, "hc", out, Metrics.table1Excluded)
    assert(s.f1 < 0.05, s.row)
    // It really did only touch the sample.
    assert(out.except(movies.dirty).count() < 100)
  }

  // ---- Raha+Baran

  test("Raha+Baran learns the ounce→oz rule from labels (Beers)") {
    val out = new RahaBaranLite().clean(spark, beers)
    val s = Metrics.score(beers, "rb", out, Metrics.table1Excluded)
    assert(s.f1 > 0.8, s.row)
  }

  test("Raha+Baran cannot fix identifier typos (Hospital recall gap)") {
    val out = new RahaBaranLite().clean(spark, hospital)
    val s = Metrics.score(hospital, "rb", out, Metrics.table1Excluded)
    assert(s.recall < 0.85, s.row)
    assert(s.precision > 0.85, s.row)
  }

  test("Raha+Baran fixes misplacements through the country→language FD (Movies)") {
    val out = new RahaBaranLite().clean(spark, movies)
    val s = Metrics.score(movies, "rb", out, Metrics.table1Excluded)
    assert(s.recall > 0.6, s.row)
  }

  // ---- CleanAgent

  test("CleanAgent standardisation scores zero everywhere (Table 1 row)") {
    for (ds <- Seq(hospital, beers)) {
      val out = new CleanAgentLite().clean(spark, ds)
      val s = Metrics.score(ds, "ca", out, Metrics.table1Excluded)
      assert(s.f1 == 0.0, s.row)
    }
  }

  test("CleanAgent rewrites phone columns into its own canonical format") {
    val out = new CleanAgentLite().clean(spark, hospital)
    assert(out.filter("phone LIKE '(%'").count() == 1000)
  }

  // ---- RetClean

  test("RetClean fixes dictionary typos on Rayyan but overcorrects bait tokens") {
    val rayyan = Rayyan.generate(spark)
    val out = new RetCleanLite().clean(spark, rayyan)
    val s = Metrics.score(rayyan, "rc", out, Metrics.table1Excluded)
    assert(s.recall > 0.2, s.row)
    assert(s.precision > 0.3 && s.precision < 0.75, s.row)
  }

  test("RetClean is useless outside Rayyan (Movies)") {
    val out = new RetCleanLite().clean(spark, movies)
    val s = Metrics.score(movies, "rc", out, Metrics.table1Excluded)
    assert(s.f1 == 0.0, s.row)
  }

  test("baseline outputs preserve schema and row count") {
    for (sys <- Harness.allSystems().filter(_.name != "Cocoon")) {
      val out = sys.clean(spark, beers)
      assert(out.count() == 2410, sys.name)
      assert(out.columns.toSeq == beers.dirty.columns.toSeq, sys.name)
    }
  }
}
