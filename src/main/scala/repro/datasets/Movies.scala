package repro.datasets

import org.apache.spark.sql.SparkSession
import scala.util.Random
import BenchDataset.TableBuilder
import ErrorInjector._

/** Synthetic stand-in for the Movies benchmark [Magellan repository].
  *
  * 7390 rows. Table-1 errors are typos in frequent-value columns (genre,
  * country) and 938 value misplacements — the row's country entered in the
  * `language` column — repairable through the semantically meaningful FD
  * country → language. Misplacements sit beyond row 1000, so systems
  * that sample the first 1000 rows (HoloClean, CleanAgent, per the paper's
  * footnote) never see them. Column-type errors span the whole `duration`
  * ("100 min" / "1 hr 40 min" → minutes as DOUBLE) and `rating` ("7.5/10" →
  * "7.5") columns, ≈14.8k cells (paper: 14,433); a learned " min"→".0"
  * suffix rule handles the first format but mangles the hour-minute one —
  * the Raha failure the paper describes — while semantic parsing converts
  * both.
  */
object Movies {

  val columns: Seq[String] = Seq(
    "title", "year", "duration", "rating", "genre", "director",
    "country", "language", "content_rating",
  )

  val fdConstraints: Seq[(String, String)] = Seq("country" -> "language")

  // Movie-title vocabulary: deliberately ≥3 edits from the research-English
  // dictionary, so dictionary-based correction (RetClean) finds nothing here.
  private val titleWords = IndexedSeq(
    "Crimson", "Galaxy", "Vengeance", "Shadowlands", "Midnight", "Inferno",
    "Whispering", "Kingdom", "Forgotten", "Avalanche", "Starlight", "Phantom",
    "Uprising", "Warrior", "Silent", "Thunderbolt", "Maverick", "Oblivion",
    "Horizon", "Labyrinth", "Tempest", "Voyager", "Eclipse", "Raven",
  )
  private val genres = IndexedSeq(
    "Drama", "Comedy", "Action", "Thriller", "Romance", "Horror", "Adventure",
    "Animation", "Documentary", "Fantasy", "Mystery", "Western", "Musical", "Biography",
  )
  private val directors = IndexedSeq(
    "J. Martell", "R. Okafor", "S. Winters", "L. Moreau", "K. Tanahashi",
    "D. Vasquez", "P. Lindqvist", "A. Romano", "T. Beaumont", "N. Castellanos",
    "M. Oyelaran", "H. Bergstrom", "C. Delacroix", "V. Petrova", "G. Marchetti",
  )
  // country → its dominant film language (the FD's semantic ground).
  private val countryLang = IndexedSeq(
    ("USA", "English"), ("UK", "English"), ("France", "French"), ("Germany", "German"),
    ("Italy", "Italian"), ("Spain", "Spanish"), ("Japan", "Japanese"), ("China", "Chinese"),
    ("Russia", "Russian"), ("India", "Hindi"), ("Brazil", "Portuguese"), ("Mexico", "Spanish"),
    ("Sweden", "Swedish"), ("Poland", "Polish"), ("Turkey", "Turkish"),
  )
  private val contentRatings = IndexedSeq("G", "PG", "PG-13", "R", "NC-17")

  val nRows = 7390
  val typoTarget = 184
  val misplacementTarget = 938
  val dmvTarget = 131
  /** Fraction of rows whose language legitimately differs from the country's
    * dominant one — irreducible FD noise that caps every system's precision.
    */
  val legitMinorityShare = 0.015

  def generate(spark: SparkSession, seed: Long = 46): BenchDataset = {
    val rnd = new Random(seed)
    val b = new TableBuilder(columns, nRows)
    val countries = countryLang.map(_._1)
    val langOf = countryLang.toMap
    val allLangs = countryLang.map(_._2).distinct

    for (r <- 0 until nRows) {
      // USA-heavy country mix, as in the original data.
      val country = if ((r * 31) % 100 < 40) "USA" else countries((r * 17) % countries.size)
      val language =
        if (rnd.nextDouble() < legitMinorityShare) otherValue(allLangs.toIndexedSeq, langOf(country), rnd)
        else langOf(country)
      val minutes = 60 + (r * 29) % 121
      b.setBoth(r, "title", s"${titleWords(r % titleWords.size)} ${titleWords((r / titleWords.size + 5) % titleWords.size)} ${1 + r % 4}")
      b.setBoth(r, "year", (1950 + (r * 7) % 74).toString)
      b.setBoth(r, "genre", genres((r * 11) % genres.size))
      b.setBoth(r, "director", directors((r * 13) % directors.size))
      b.setBoth(r, "country", country)
      b.setBoth(r, "language", language)
      b.setBoth(r, "content_rating", contentRatings((r * 19) % contentRatings.size))
      // Column-type cells: whole columns are cast errors (paper counts them
      // that way: Movies 14,433 ≈ two full columns).
      val durDirty = if ((r * 41) % 100 < 10) { // 10% in the hr-min format
        if (minutes % 60 == 0) s"${minutes / 60} hr" else s"${minutes / 60} hr ${minutes % 60} min"
      } else s"$minutes min"
      b.setCell(r, "duration", durDirty, minutes.toDouble.toString, "coltype")
      val rating = s"${1 + (r * 23) % 9}.${(r * 3) % 10}"
      b.setCell(r, "rating", s"$rating/10", rating, "coltype")
    }

    // Typos ('x'-substitution) in frequent-value columns.
    for ((col, k, domain) <- Seq(("genre", 100, genres), ("country", 84, countries)))
      b.inject(k, rnd) { r =>
        !b.isLabeled(r, col) &&
          typoX(b.cleanValue(r, col), rnd, domain.toSet).exists(t => b.setCell(r, col, t, b.cleanValue(r, col), "typo"))
      }

    // Misplacement: the row's country value entered in `language`; only in
    // rows ≥ 1100 so first-1000-row samplers never see one.
    b.inject(misplacementTarget, rnd, 1100 until nRows) { r =>
      !b.isLabeled(r, "language") &&
        b.setCell(r, "language", b.dirtyValue(r, "country"), b.cleanValue(r, "language"), "misplacement")
    }

    // DMV in content_rating.
    b.inject(dmvTarget, rnd) { r =>
      !b.isLabeled(r, "content_rating") && b.setCell(r, "content_rating", dmvToken(rnd), null, "dmv")
    }

    b.build(spark, "movies", fdConstraints)
  }
}
