package repro.datasets

import org.apache.spark.sql.SparkSession
import scala.util.Random
import BenchDataset.TableBuilder
import ErrorInjector._

/** Synthetic stand-in for the Flights benchmark [Rekatsinas et al. 2017].
  *
  * Each flight appears in 4–6 rows (one per source website). The dataset's
  * defining property — the paper's "benchmark ambiguity" — is reproduced
  * directly: actual departure/arrival times are jittered within a flight's
  * rows so that most violating groups have no confident majority ("10:30
  * p.m." ×2, "10:31 p.m." ×2, "10:28 p.m." ×1). A confident cleaner fixes
  * only the clear groups (high precision, low recall); a plurality-repair
  * cleaner fixes more but is wrong wherever the plurality is not the truth.
  */
object Flights {

  val columns: Seq[String] = Seq(
    "flight", "carrier_name", "src",
    "sched_dep_time", "act_dep_time", "sched_arr_time", "act_arr_time",
  )

  val fdConstraints: Seq[(String, String)] = Seq(
    "flight" -> "sched_dep_time", "flight" -> "act_dep_time",
    "flight" -> "sched_arr_time", "flight" -> "act_arr_time",
  )

  private val carriers = IndexedSeq(
    "AA" -> "American Airlines", "UA" -> "United Airlines", "DL" -> "Delta Air Lines",
    "WN" -> "Southwest Airlines", "B6" -> "JetBlue Airways", "AS" -> "Alaska Airlines",
    "NK" -> "Spirit Airlines", "F9" -> "Frontier Airlines",
  )
  private val airports = IndexedSeq("ORD", "PHX", "LAX", "JFK", "ATL", "DFW", "DEN", "SEA", "MIA", "BOS")
  private val sources  = IndexedSeq("aa", "flightview", "flightaware", "orbitz", "travelocity", "mytrip")

  val nRows = 2376

  /** Fractions of flight-groups per actual-time column in each regime. */
  val clearShare = 0.25      // one wrong cell, confident majority → everyone fixes
  val ambiguousShare = 0.35  // ~half the cells wrong, no confident majority
  val wrongPluralityShare = 0.10 // of ambiguous groups: a wrong variant is the plurality

  def generate(spark: SparkSession, seed: Long = 43): BenchDataset = {
    val rnd = new Random(seed)
    // Flight groups until nRows are filled.
    val groups = scala.collection.mutable.ListBuffer.empty[(Int, Int)] // (flightIdx, size)
    var total = 0; var f = 0
    while (total < nRows) {
      val size = math.min(4 + rnd.nextInt(3), nRows - total)
      groups += ((f, size)); total += size; f += 1
    }
    val b = new TableBuilder(columns, nRows)

    var r0 = 0
    for ((fi, size) <- groups) {
      val (code, carrier) = carriers(fi % carriers.size)
      val src = airports(fi % airports.size)
      val dst = airports((fi / airports.size + fi + 1) % airports.size)
      val flight = s"$code-${1000 + fi}-$src-$dst"
      val schedDep = 300 + (fi * 37) % 1080
      val actDep   = schedDep + 5 + (fi % 25)
      val schedArr = schedDep + 90 + (fi * 13) % 240
      val actArr   = schedArr + 3 + (fi % 31)
      val truthTimes = Map(
        "sched_dep_time" -> schedDep, "act_dep_time" -> actDep,
        "sched_arr_time" -> schedArr, "act_arr_time" -> actArr,
      )
      for (i <- 0 until size) {
        val r = r0 + i
        b.setBoth(r, "flight", flight)
        b.setBoth(r, "carrier_name", carrier)
        b.setBoth(r, "src", sources(i % sources.size))
        truthTimes.foreach { case (c, t) => b.setBoth(r, c, renderTime(t)) }
      }

      def corrupt(col: String, rows: Seq[Int], variant: Int): Unit =
        rows.foreach { i =>
          val t = renderTime(variant)
          b.setCell(r0 + i, col, t, b.cleanValue(r0 + i, col), "fd")
        }

      for (col <- Seq("act_dep_time", "act_arr_time")) {
        val base = truthTimes(col)
        val roll = rnd.nextDouble()
        if (roll < clearShare) {
          corrupt(col, Seq(rnd.nextInt(size)), base + 1 + rnd.nextInt(8))
        } else if (roll < clearShare + ambiguousShare) {
          val v1 = base + 1 + rnd.nextInt(5)
          val v2 = base - 1 - rnd.nextInt(5)
          if (rnd.nextDouble() < wrongPluralityShare) {
            // A wrong variant is the plurality: corrupt ~60% of rows to v1.
            val k = math.max(2, math.ceil(size * 0.6).toInt)
            corrupt(col, rnd.shuffle((0 until size).toList).take(k), v1)
          } else {
            // Split the wrong cells over two variants; truth keeps a thin
            // plurality but never a confident (≥60%) majority.
            val k = size / 2
            val picked = rnd.shuffle((0 until size).toList).take(k)
            val (asV1, asV2) = picked.splitAt((k + 1) / 2)
            corrupt(col, asV1, v1); corrupt(col, asV2, v2)
          }
        }
      }
      for (col <- Seq("sched_dep_time", "sched_arr_time")) {
        if (rnd.nextDouble() < 0.12)
          corrupt(col, Seq(rnd.nextInt(size)), truthTimes(col) + 2 + rnd.nextInt(6))
      }
      r0 += size
    }

    // A few 'x'-substitution typos in the carrier name (string-outlier food).
    val carrierDomain = carriers.map(_._2).toSet
    b.inject(60, rnd) { r =>
      !b.isLabeled(r, "carrier_name") &&
        typoX(b.cleanValue(r, "carrier_name"), rnd, carrierDomain)
          .exists(t => b.setCell(r, "carrier_name", t, b.cleanValue(r, "carrier_name"), "typo"))
    }

    b.build(spark, "flights", fdConstraints)
  }
}
